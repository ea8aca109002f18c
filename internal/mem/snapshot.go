package mem

import (
	"runtime"
	"sync/atomic"
)

// Snapshot and restore support for the durability tier. A checkpoint
// streams the words of the live space chunk by chunk, plus the two
// allocation bump pointers (globals and central heap); recovery decodes
// them straight into the backing words of a freshly sized space.

// ReadWords copies the len(dst) words starting at word index at into
// dst (wal.WordSource, together with Size). It may run while
// transactions do (a fuzzy checkpoint), and then it is the one reader
// that can race a plain store to captured memory (StorePlain, Zero).
// Each word is read atomically and is at most a machine word, so the
// Go memory model guarantees it observes some committed or in-flight
// write, never a torn one. Redo-tail replay from the checkpoint's log
// cut repairs the in-flight ones.
func (s *Space) ReadWords(dst []uint64, at int) {
	src := s.words[at : at+len(dst)]
	for i := range src {
		dst[i] = atomic.LoadUint64(&src[i])
	}
	runtime.KeepAlive(s)
}

// Restore hands fill the backing words of the space so recovery can
// build the image in place instead of copying one in. Only valid on a
// fresh space (all zero), before any thread exists.
func (s *Space) Restore(fill func(words []uint64) error) error {
	err := fill(s.words)
	runtime.KeepAlive(s)
	return err
}

// GlobalsNext reports the globals-region bump pointer.
func (s *Space) GlobalsNext() uint64 { return s.globalsNext.Load() }

// SetGlobalsNext restores the globals-region bump pointer. Only valid
// during recovery, before any allocation.
func (s *Space) SetGlobalsNext(v uint64) { s.globalsNext.Store(v) }

// HeapNext reports the central heap bump pointer (lock-free; the
// durability tier reads it on every redo record).
func (s *Space) HeapNext() uint64 { return s.central.hi.Load() }

// SetHeapNext restores the central heap bump pointer. Only valid during
// recovery, before any allocation. Per-thread free lists and bump spans
// from the previous incarnation are not reconstructed: the words they
// covered were already carved out of central, so the recovered runtime
// simply never reuses them. Recovery trades that bounded leak for not
// having to serialize allocator caches.
func (s *Space) SetHeapNext(v uint64) {
	s.central.mu.Lock()
	defer s.central.mu.Unlock()
	s.central.next = Addr(v)
	s.central.hi.Store(v)
}
