package capture

import "repro/internal/mem"

// Array is the bounded allocation log of the paper's Fig. 6: an
// unsorted, fixed-capacity array of ranges sized to one cache line so
// a containment probe touches a single line. When the array is full,
// further ranges are silently dropped — a conservative false negative,
// exploiting that capture analysis "does not have to be accurate as
// long as it is conservative".
//
// The paper's observation (Sec. 4.1) is that most transactions perform
// few allocations, so tracking only the first handful captures nearly
// the full elision potential (yada being the exception).
//
// No transaction uses it: the STM's one allocation log is Tree. Array
// stays as a standalone structure, checked by FuzzArray, until a later
// change deletes it with its tests.
type Array struct {
	start []mem.Addr
	end   []mem.Addr
	n     int
	drops uint64
}

// NewArray creates a bounded log holding at most cap ranges.
func NewArray(capacity int) *Array {
	if capacity <= 0 {
		panic("capture: Array capacity must be positive")
	}
	return &Array{
		start: make([]mem.Addr, capacity),
		end:   make([]mem.Addr, capacity),
	}
}

// Cap returns the array capacity in ranges.
func (a *Array) Cap() int { return len(a.start) }

// Len reports the number of tracked ranges.
func (a *Array) Len() int { return a.n }

// Drops reports how many Inserts were dropped because the array was
// full (observability for the ablation benchmarks).
func (a *Array) Drops() uint64 { return a.drops }

// Insert records [start, end) if a slot is free, else drops it.
func (a *Array) Insert(start, end mem.Addr) {
	if start >= end {
		panic("capture: Array.Insert: empty range")
	}
	if a.n == len(a.start) {
		a.drops++
		return
	}
	a.start[a.n] = start
	a.end[a.n] = end
	a.n++
}

// Contains reports whether [addr, addr+size) lies in a tracked range.
func (a *Array) Contains(addr mem.Addr, size int) bool {
	last := addr + mem.Addr(size)
	for i := 0; i < a.n; i++ {
		if addr >= a.start[i] && last <= a.end[i] {
			return true
		}
	}
	return false
}

// Remove forgets the range [start, end), if tracked.
func (a *Array) Remove(start, end mem.Addr) {
	for i := 0; i < a.n; i++ {
		if a.start[i] == start && a.end[i] == end {
			a.n--
			a.start[i] = a.start[a.n]
			a.end[i] = a.end[a.n]
			return
		}
	}
}

// Clear empties the log.
func (a *Array) Clear() { a.n = 0 }
