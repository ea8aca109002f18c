package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The heap allocator is a size-class segregated allocator in the
// spirit of McRT-malloc (Hudson et al., ISMM 2006), which is what the
// paper's STM runtime uses underneath its transactional allocator:
//
//   - A central region is carved into spans under a mutex.
//   - Each thread owns a cache with per-size-class free lists and a
//     private bump span, so steady-state allocation is lock free.
//   - Every block has a one-word header holding the payload size, so
//     Free(addr) and the STM's allocation log can recover the block
//     range from the payload address alone.
//
// There is no coalescing: freed blocks return to the freeing thread's
// class list. That matches the workloads here (fixed-shape nodes
// recycled at high rates) and keeps the allocator deterministic.

// numClasses size classes cover payloads up to 1<<14 words; larger
// allocations are carved directly from the central region.
var classSizes = []int{
	1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64, 96, 128,
	192, 256, 384, 512, 768, 1024, 2048, 4096, 8192, 16384,
}

const spanWords = 8192 // words fetched from central per refill

// sizeClass returns the smallest class index whose size is ≥ n, or -1
// if n exceeds the largest class.
func sizeClass(n int) int {
	for i, s := range classSizes {
		if n <= s {
			return i
		}
	}
	return -1
}

type central struct {
	mu    sync.Mutex
	next  Addr
	limit Addr
	// hi mirrors next so the durability tier can read the bump pointer
	// lock-free on every redo record (Space.HeapNext).
	hi atomic.Uint64
}

func (c *central) init(start, end Addr) {
	c.next = start
	c.limit = end
	c.hi.Store(uint64(start))
}

// grab carves n words from the central region.
func (c *central) grab(n int) Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next+Addr(n) > c.limit {
		panic(fmt.Sprintf("mem: heap exhausted (want %d words, %d left)", n, c.limit-c.next))
	}
	a := c.next
	c.next += Addr(n)
	c.hi.Store(uint64(c.next))
	return a
}

// Allocator is a per-thread heap allocation cache. An Allocator must
// only be used by one goroutine at a time.
type Allocator struct {
	space *Space
	free  [][]Addr // per-class free lists of payload addresses
	span  Addr     // private bump span
	spanN int      // words left in span

	// Stats
	Allocs uint64
	Frees  uint64
}

// NewAllocator creates a heap allocation cache on s.
func NewAllocator(s *Space) *Allocator {
	return &Allocator{
		space: s,
		free:  make([][]Addr, len(classSizes)),
	}
}

// Alloc allocates n payload words and returns the payload address.
// The payload reads zero: a recycled block is cleared here, and a block
// carved from the central region has never been written — a fresh space
// is zero, every block handed out before comes back through the free
// lists, and recovery resumes carving above the highest logged bump
// pointer. Alloc panics if n is not positive.
func (al *Allocator) Alloc(n int) Addr {
	if n <= 0 {
		panic("mem: Alloc size must be positive")
	}
	al.Allocs++
	ci := sizeClass(n)
	if ci < 0 {
		// Large allocation straight from central; header + payload.
		a := al.space.central.grab(n + 1)
		al.space.StorePlain(a, uint64(n)<<1|1) // header: size<<1 | large bit
		return a + 1
	}
	cs := classSizes[ci]
	if fl := al.free[ci]; len(fl) > 0 {
		p := fl[len(fl)-1]
		al.free[ci] = fl[:len(fl)-1]
		al.space.Zero(p, cs)
		return p
	}
	// Carve from the private span; refill if needed.
	need := cs + 1
	if al.spanN < need {
		if need > spanWords {
			// Jumbo size class: carve a dedicated span so the block
			// cannot overflow a standard refill span.
			a := al.space.central.grab(need)
			al.space.StorePlain(a, uint64(cs)<<1)
			return a + 1
		}
		// Remainder of the old span is abandoned (bounded waste).
		al.span = al.space.central.grab(spanWords)
		al.spanN = spanWords
	}
	a := al.span
	al.span += Addr(need)
	al.spanN -= need
	al.space.StorePlain(a, uint64(cs)<<1) // header: class payload size, small
	return a + 1
}

// BlockSize returns the payload size in words of the block whose
// payload starts at p.
func (al *Allocator) BlockSize(p Addr) int {
	return int(al.space.Load(p-1) >> 1)
}

// Free returns the block whose payload starts at p to this cache.
// Freeing Nil is a no-op, as with C free.
func (al *Allocator) Free(p Addr) {
	if p == Nil {
		return
	}
	h := al.space.Load(p - 1)
	al.Frees++
	if h&1 != 0 {
		// Large block: dropped (never recycled). The workloads make
		// few large allocations, all long lived.
		return
	}
	cs := int(h >> 1)
	ci := sizeClass(cs)
	if ci < 0 || classSizes[ci] != cs {
		panic(fmt.Sprintf("mem: Free(%d): corrupt block header %#x", p, h))
	}
	al.free[ci] = append(al.free[ci], p)
}

// Live returns allocs minus frees, a leak-check aid for tests.
func (al *Allocator) Live() uint64 { return al.Allocs - al.Frees }
