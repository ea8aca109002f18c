// Package mem implements the simulated flat memory that the STM
// runtime and all workloads operate on.
//
// The paper's techniques (stack range checks, allocation-log
// containment, address→orec hashing) all need stable integer addresses
// and an allocator the runtime controls. Go's garbage collector
// provides neither, so this package supplies a word-addressable
// address space: a contiguous array of 64-bit words indexed by Addr.
// Address 0 is the nil guard and is never allocated.
//
// Layout of the space, low to high:
//
//	[0]                       nil guard
//	[1, globalsEnd)           globals region (bump allocated, never freed)
//	[globalsEnd, heapEnd)     heap region (size-class allocator)
//	[heapEnd, end)            per-thread stacks, each growing downward
//
// Words other threads can reach go through sync/atomic: Load, Store
// and CAS. Words no other thread can reach are written plainly, with
// StorePlain and Zero, which cost a MOV or a memclr instead of a fenced
// XCHG. That covers a transaction's captured memory (its stack frames
// and the blocks it allocated) and the header of a block being carved.
// No other thread can reach them, for three reasons:
//
//   - Bump-carved blocks and stack frames have never been handed to
//     another thread.
//   - A block freed by a transaction is recycled only after limbo
//     quiescence (stm's enqueueLimbo): every thread that was inside a
//     transaction at the free has finished it, so no zombie reader
//     still holds the address.
//   - A block a transaction allocates and frees again goes back to its
//     own thread's free list, which no other thread allocates from, so
//     stm may keep treating it as captured until the transaction ends:
//     the only way to reach it again is to allocate it again on the
//     same thread.
//   - Publication goes through the runtime's orec and clock atomics,
//     which order every plain store before them.
//
// The one concurrent reader of such words is a fuzzy checkpoint
// (ReadWords). What it reads of an in-flight plain store is repaired by
// redo replay from the checkpoint's log cut, and the Go memory model
// guarantees that a racy read of at most a machine word observes some
// write, never a torn value. Words are 64 bits, so that holds on the
// 64-bit targets CI builds. The race detector does not see these
// accesses at all on unix, where the space is a mapping outside the
// ranges it shadows.
//
// The array is not Go-heap memory where the platform can map pages
// (words_unix.go): it is a demand-zero anonymous mapping, so a space
// costs the pages a run touches, not the words it reserves, and the
// garbage collector neither scans it nor counts it toward its goal.
// Nothing in the package re-zeroes memory the allocators have never
// handed out: it reads zero because no one has written it.
package mem

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
)

// Addr is a simulated memory address: an index of a 64-bit word in the
// address space. The zero Addr is the nil pointer.
type Addr uint64

// Nil is the null simulated address.
const Nil Addr = 0

// LineWords is the number of words in one simulated cache line
// (8 words × 8 bytes = 64 bytes, matching the paper's cache-line-based
// orec mapping).
const LineWords = 8

// Config sizes an address space.
type Config struct {
	// GlobalWords is the size of the globals region.
	GlobalWords int
	// HeapWords is the size of the heap region.
	HeapWords int
	// StackWords is the size of each per-thread stack.
	StackWords int
	// MaxThreads is the number of per-thread stacks to reserve.
	MaxThreads int
}

// DefaultConfig returns a configuration suitable for the tests and the
// scaled-down STAMP workloads (4 722 689 words = 36 MiB of simulated
// memory).
func DefaultConfig() Config {
	return Config{
		GlobalWords: 1 << 12,
		HeapWords:   1 << 22,
		StackWords:  1 << 14,
		MaxThreads:  32,
	}
}

// Space is a simulated address space.
type Space struct {
	// words is the backing store (NewWords): on unix an anonymous
	// mapping outside the Go heap, unmapped once the Space is
	// unreachable. It is an ordinary slice with its length, so every
	// access is bounds checked. The loops over it (Checksum, ReadWords,
	// Restore) pin the Space with runtime.KeepAlive; Load, Store and CAS
	// stay at their inlining cost and rely on their callers reaching
	// the space through a Runtime, Stack or Allocator they go on using.
	words []uint64

	globalsNext atomic.Uint64 // bump pointer for AllocGlobal
	globalsEnd  Addr

	heapStart Addr
	heapEnd   Addr

	stackBase  Addr // start of the stacks region
	stackWords int
	maxThreads int

	central central // central heap allocator
}

// NewSpace creates an address space with the given configuration.
func NewSpace(cfg Config) *Space {
	if cfg.GlobalWords <= 0 || cfg.HeapWords <= 0 || cfg.StackWords <= 0 || cfg.MaxThreads <= 0 {
		panic("mem: all Config fields must be positive")
	}
	total := 1 + cfg.GlobalWords + cfg.HeapWords + cfg.StackWords*cfg.MaxThreads
	s := &Space{
		globalsEnd: Addr(1 + cfg.GlobalWords),
		stackWords: cfg.StackWords,
		maxThreads: cfg.MaxThreads,
	}
	s.words = NewWords[uint64](s, total)
	s.globalsNext.Store(1)
	s.heapStart = s.globalsEnd
	s.heapEnd = s.heapStart + Addr(cfg.HeapWords)
	s.stackBase = s.heapEnd
	s.central.init(s.heapStart, s.heapEnd)
	return s
}

// Size returns the total number of words in the space.
func (s *Space) Size() int { return len(s.words) }

// Checksum returns an FNV-1a hash over every word of the space. Two
// single-threaded runs of the same deterministic workload must leave
// identical spaces whatever optimization profile was active — barriers
// and elisions change how values are written, never which values — so
// the checksum is the final-state fingerprint the differential tests
// compare across profiles. Call it only after worker threads joined.
//
// The words above the two bump pointers were never handed out, so they
// read zero, and FNV-1a over a run of k zero words is a multiplication
// by prime^k: those two runs are folded in without being read. The
// stacks keep no low-water mark and are hashed word by word.
func (s *Space) Checksum() uint64 {
	globalsNext := min(Addr(s.globalsNext.Load()), s.globalsEnd)
	heapNext := Addr(s.central.hi.Load())
	h := uint64(fnvOffset)
	h = fnvWords(h, s.words[:globalsNext])
	h *= fnvPrimePow(uint64(s.globalsEnd - globalsNext))
	h = fnvWords(h, s.words[s.globalsEnd:heapNext])
	h *= fnvPrimePow(uint64(s.heapEnd - heapNext))
	h = fnvWords(h, s.words[s.heapEnd:])
	runtime.KeepAlive(s) // the mapping must outlive the loops above
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWords continues the FNV-1a hash h over words.
func fnvWords(h uint64, words []uint64) uint64 {
	for i := range words {
		h = (h ^ atomic.LoadUint64(&words[i])) * fnvPrime
	}
	return h
}

// fnvPrimePow returns fnvPrime**k mod 2^64 by square-and-multiply.
func fnvPrimePow(k uint64) uint64 {
	r, b := uint64(1), uint64(fnvPrime)
	for ; k > 0; k >>= 1 {
		if k&1 != 0 {
			r *= b
		}
		b *= b
	}
	return r
}

// Load atomically reads the word at a.
func (s *Space) Load(a Addr) uint64 {
	return atomic.LoadUint64(&s.words[a])
}

// Store atomically writes the word at a.
func (s *Space) Store(a Addr, v uint64) {
	atomic.StoreUint64(&s.words[a], v)
}

// StorePlain writes the word at a without synchronization. Use it only
// for words no other thread can reach (see the package doc): a captured
// store or a block header.
func (s *Space) StorePlain(a Addr, v uint64) {
	s.words[a] = v
}

// CAS performs a compare-and-swap on the word at a.
func (s *Space) CAS(a Addr, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&s.words[a], old, new)
}

// LoadFloat reads the word at a as a float64.
func (s *Space) LoadFloat(a Addr) float64 {
	return math.Float64frombits(s.Load(a))
}

// StoreFloat writes a float64 to the word at a.
func (s *Space) StoreFloat(a Addr, f float64) {
	s.Store(a, math.Float64bits(f))
}

// AllocGlobal bump-allocates n words in the globals region. Globals
// are never freed. It is safe for concurrent use.
func (s *Space) AllocGlobal(n int) Addr {
	if n <= 0 {
		panic("mem: AllocGlobal size must be positive")
	}
	a := Addr(s.globalsNext.Add(uint64(n)) - uint64(n))
	if a+Addr(n) > s.globalsEnd {
		panic(fmt.Sprintf("mem: globals region exhausted (want %d words)", n))
	}
	return a
}

// HeapRange reports the [start, end) bounds of the heap region.
func (s *Space) HeapRange() (Addr, Addr) { return s.heapStart, s.heapEnd }

// StackRange reports the [low, high) bounds of thread tid's stack.
// The stack grows downward from high toward low.
func (s *Space) StackRange(tid int) (Addr, Addr) {
	if tid < 0 || tid >= s.maxThreads {
		panic(fmt.Sprintf("mem: thread id %d out of range [0,%d)", tid, s.maxThreads))
	}
	low := s.stackBase + Addr(tid*s.stackWords)
	return low, low + Addr(s.stackWords)
}

// InHeap reports whether a lies in the heap region.
func (s *Space) InHeap(a Addr) bool { return a >= s.heapStart && a < s.heapEnd }

// Zero clears n words starting at a with plain stores (a memclr). Like
// StorePlain it is only for words no other thread can reach: a recycled
// block, a fresh stack frame, or a space whose threads have joined.
func (s *Space) Zero(a Addr, n int) {
	clear(s.words[a : a+Addr(n)])
}
