//go:build unix

package mem

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// NewWords returns n zero elements of E (a word-sized type: uint64, or
// atomic.Uint64 for a table of atomics) in an anonymous private
// mapping: the kernel supplies zero pages on first touch, so memory
// and set-up time follow the elements a run touches, and the collector
// neither scans nor sizes its goal by them. The mapping is released
// when owner becomes unreachable, so owner must outlive every use of
// the slice. It backs the space (NewSpace) and the STM's ownership
// records.
func NewWords[E, O any](owner *O, n int) []E {
	size := int(unsafe.Sizeof(*new(E)))
	b, err := syscall.Mmap(-1, 0, n*size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mem: mapping %d words: %v", n, err))
	}
	runtime.AddCleanup(owner, func(b []byte) { syscall.Munmap(b) }, b)
	return unsafe.Slice((*E)(unsafe.Pointer(&b[0])), n)
}
