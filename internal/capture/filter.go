package capture

import "repro/internal/mem"

// Filter is the hash-table allocation log of Section 3.1.2: when a
// block is allocated, every word address in the block is hashed and
// the slot is marked with the exact address; a containment probe is a
// hash plus a compare. Collisions overwrite older marks, producing
// false negatives but never false positives. Deallocation clears only
// slots that still hold the block's own addresses.
//
// As the paper notes, probes are fast but insertion/removal cost is
// proportional to the block size, which is what makes the filter
// slightly slower than the precise log and array on allocation-heavy
// workloads (Fig. 11b).
type Filter struct {
	slots []mem.Addr // slot holds the marked address + 1, or 0 if empty
	mask  uint64
	dirty []uint32 // slot indices to clear on Clear()
	n     int
}

// NewFilter creates a filter with 1<<bits slots.
func NewFilter(bits int) *Filter {
	if bits <= 0 || bits > 30 {
		panic("capture: Filter bits out of range")
	}
	return &Filter{
		slots: make([]mem.Addr, 1<<bits),
		mask:  uint64(1<<bits - 1),
		dirty: make([]uint32, 0, 64),
	}
}

func (f *Filter) slot(a mem.Addr) uint32 {
	// Fibonacci hashing spreads consecutive addresses across slots.
	return uint32((uint64(a) * hashMul >> 33) & f.mask)
}

// Len reports the number of currently marked words.
func (f *Filter) Len() int { return f.n }

// Insert marks every word of [start, end).
func (f *Filter) Insert(start, end mem.Addr) {
	if start >= end {
		panic("capture: Filter.Insert: empty range")
	}
	for a := start; a < end; a++ {
		s := f.slot(a)
		if f.slots[s] == 0 {
			f.n++
			f.dirty = append(f.dirty, s)
		} else if f.slots[s] == a+1 {
			continue // already marked by an earlier allocation
		}
		f.slots[s] = a + 1
	}
}

// Remove clears the marks of [start, end) that still belong to it.
func (f *Filter) Remove(start, end mem.Addr) {
	for a := start; a < end; a++ {
		s := f.slot(a)
		if f.slots[s] == a+1 {
			f.slots[s] = 0
			f.n--
		}
	}
}

// Contains reports whether every word of [addr, addr+size) is marked.
// The filter is word-granular, so unlike the tree and array it also
// answers true for an access spanning *adjacent* recorded ranges —
// every such word is still captured memory, so elision stays safe.
func (f *Filter) Contains(addr mem.Addr, size int) bool {
	for i := 0; i < size; i++ {
		a := addr + mem.Addr(i)
		if f.slots[f.slot(a)] != a+1 {
			return false
		}
	}
	return true
}

// Clear unmarks everything touched since the last Clear.
func (f *Filter) Clear() {
	for _, s := range f.dirty {
		f.slots[s] = 0
	}
	f.dirty = f.dirty[:0]
	f.n = 0
}
