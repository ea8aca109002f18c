package stm

import (
	"reflect"
	"testing"
	"unsafe"
)

// span is the closed range [first, last] of the cache lines a range of
// bytes covers.
type span struct{ first, last uintptr }

// lines is the span of the size bytes at p.
func lines(p unsafe.Pointer, size uintptr) span {
	a := uintptr(p)
	return span{a / lineBytes, (a + size - 1) / lineBytes}
}

func (s span) overlaps(o span) bool { return s.first <= o.last && o.first <= s.last }

// The words one thread writes on every transaction must not share a
// cache line with words another thread reads or writes: the clock with
// the rest of the Runtime, one thread's quiescence counter with the
// next one's, one thread's stack pointer and allocator cache with
// another's.
func TestThreadPrivateWordsOwnTheirLines(t *testing.T) {
	rt := newRT(Baseline())

	clock := lines(unsafe.Pointer(&rt.clock), unsafe.Sizeof(rt.clock))
	base := unsafe.Pointer(rt)
	rtType := reflect.TypeOf(rt).Elem()
	for i := 0; i < rtType.NumField(); i++ {
		f := rtType.Field(i)
		if f.Name == "_" || f.Name == "clock" {
			continue
		}
		if lines(unsafe.Add(base, f.Offset), f.Type.Size()).overlaps(clock) {
			t.Errorf("Runtime.%s shares a cache line with Runtime.clock", f.Name)
		}
	}

	for i := 1; i < len(rt.seqs); i++ {
		if d := uintptr(unsafe.Pointer(&rt.seqs[i])) - uintptr(unsafe.Pointer(&rt.seqs[i-1])); d < lineBytes {
			t.Fatalf("seqs slots %d and %d are %d bytes apart, want at least %d", i-1, i, d, lineBytes)
		}
	}

	// stack and alloc (adjacent fields) may share lines with each other,
	// not with another thread's.
	private := func(th *Thread) span {
		size := unsafe.Offsetof(th.alloc) - unsafe.Offsetof(th.stack) + unsafe.Sizeof(th.alloc)
		return lines(unsafe.Pointer(&th.stack), size)
	}
	a, b := rt.Thread(0), rt.Thread(1)
	if private(a).overlaps(private(b)) {
		t.Errorf("threads 0 and 1 share a cache line between their stacks and allocators: %v, %v", private(a), private(b))
	}
}
