//go:build unix

package mem

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// newWords backs s with n zero words of anonymous private mapping: the
// kernel supplies zero pages on first touch, so memory and set-up time
// follow the words a run touches, and the collector neither scans nor
// sizes its goal by the space. The mapping is released when s becomes
// unreachable — never by Close, which leaves the space readable.
func newWords(s *Space, n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mem: mapping %d words: %v", n, err))
	}
	runtime.AddCleanup(s, func(b []byte) { syscall.Munmap(b) }, b)
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}
