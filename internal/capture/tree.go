package capture

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// Tree is the precise allocation log: an open-addressed table of
// disjoint ranges keyed by 16-word granule. A range [start, end) is
// entered once per granule it touches as {granule+1, start, end}, so a
// probe is one multiply-shift hash of the address's granule plus a
// linear scan that stops at the first empty slot — expected O(1) for a
// hit and for a miss, and exact for both.
//
// The paper's Fig. 5 is a search tree with min/max bounds at internal
// nodes so that misses terminate high in the tree, and this type was
// one (hence the name, which the engine and report identifiers keep).
// On the served workloads misses are the common case and most of them
// fall between two captured blocks, inside [min, max], where the bounds
// do not help: every such probe walked to a leaf, mispredicting on the
// way, in front of the shared read it could not elide. Hashing the
// granule makes the miss as cheap as the hit and keeps the table a few
// cache lines for the handful of small blocks a transaction allocates;
// the price is one slot per 16 words on Insert and Remove.
type Tree struct {
	slots []slot
	mask  uint64
	shift uint     // 64 - log2(len(slots))
	dirty []uint32 // every non-empty slot (live or tombstone), for Clear and rehash
	n     int      // recorded ranges
	heads []slot   // rehash scratch
}

// slot is one table entry. g is the granule number plus one; 0 marks an
// empty slot and tombstone a removed one, which keeps probe chains that
// pass through it intact until place reuses it or the next Clear or
// rehash empties it.
type slot struct{ g, start, end mem.Addr }

const (
	granuleShift = 4 // 16-word granules
	minSlots     = 64
	tombstone    = ^mem.Addr(0)
	noSlot       = ^uint64(0)
	hashMul      = 0x9E3779B97F4A7C15
)

func granule(a mem.Addr) mem.Addr { return a>>granuleShift + 1 }

// home is the slot where granule g's probe chain starts.
func (t *Tree) home(g mem.Addr) uint64 { return uint64(g) * hashMul >> t.shift }

// NewTree creates an empty precise allocation log.
func NewTree() *Tree {
	t := &Tree{}
	t.resize(minSlots)
	return t
}

func (t *Tree) resize(size int) {
	t.slots = make([]slot, size)
	t.mask = uint64(size - 1)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// Len reports the number of recorded ranges.
func (t *Tree) Len() int { return t.n }

// Contains reports whether [addr, addr+size) lies inside one recorded
// range. The table is precise: it finds every captured access and
// nothing else.
func (t *Tree) Contains(addr mem.Addr, size int) bool {
	g := granule(addr)
	for i := t.home(g); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.g == g && s.start <= addr && addr < s.end {
			return addr+mem.Addr(size) <= s.end
		}
		if s.g == 0 {
			return false
		}
	}
}

// Find returns the recorded range [start, end) that holds addr, or
// end = 0 when none does. The runtime's heap capture test remembers
// the range it returns, so the next access to the same block skips
// the table. Contains keeps a walk of its own: written over Find it
// would cost more than the inliner's budget of 80.
func (t *Tree) Find(addr mem.Addr) (start, end mem.Addr) {
	g := granule(addr)
	for i := t.home(g); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.g == g && s.start <= addr && addr < s.end {
			return s.start, s.end
		}
		if s.g == 0 {
			return 0, 0
		}
	}
}

// Insert records the range [start, end). Ranges inserted into one log
// come from one allocator and are therefore disjoint; inserting an
// overlapping range panics, as it would indicate allocator corruption.
func (t *Tree) Insert(start, end mem.Addr) {
	if start >= end {
		panic(fmt.Sprintf("capture: Tree.Insert(%d, %d): empty range", start, end))
	}
	need := int(granule(end-1) - granule(start) + 1)
	if (len(t.dirty)+need)*2 > len(t.slots) {
		t.rehash(need)
	}
	t.place(start, end)
	t.n++
}

// place enters [start, end) under each granule it touches. Two ranges
// that overlap share a word and so a granule, which is where the walk
// to the first empty slot finds the other one.
//
// The entry takes the first tombstone of the walk when there is one,
// which is already on the dirty list. Without that, a transaction that
// frees and re-allocates one block places each new entry past the old
// tombstones, and every probe of the granule walks them until the next
// Clear or rehash.
func (t *Tree) place(start, end mem.Addr) {
	for g := granule(start); g <= granule(end-1); g++ {
		i, at := t.home(g), noSlot
		for ; t.slots[i].g != 0; i = (i + 1) & t.mask {
			s := &t.slots[i]
			if s.g == g && start < s.end && s.start < end {
				panic(fmt.Sprintf("capture: Tree.Insert(%d, %d): overlaps [%d, %d)", start, end, s.start, s.end))
			}
			if s.g == tombstone && at == noSlot {
				at = i
			}
		}
		if at == noSlot {
			at = i
			t.dirty = append(t.dirty, uint32(i))
		}
		t.slots[at] = slot{g, start, end}
	}
}

// Remove forgets the range [start, end), tombstoning its slots. A pair
// that does not match a recorded range exactly is a no-op.
func (t *Tree) Remove(start, end mem.Addr) {
	if start >= end {
		return
	}
	for g := granule(start); g <= granule(end-1); g++ {
		i := t.home(g)
		for ; t.slots[i] != (slot{g, start, end}); i = (i + 1) & t.mask {
			if t.slots[i].g == 0 {
				return // absent; only ever on the first granule
			}
		}
		t.slots[i] = slot{g: tombstone}
	}
	t.n--
}

// Clear empties the log, zeroing only the slots touched since the last
// Clear.
func (t *Tree) Clear() {
	for _, i := range t.dirty {
		t.slots[i] = slot{}
	}
	t.dirty = t.dirty[:0]
	t.n = 0
}

// rehash drops the tombstones and doubles the table until the live
// slots plus need more stay under load ½. The persistent per-thread
// log never clears, so this is what bounds its probe chains.
func (t *Tree) rehash(need int) {
	heads, live := t.heads[:0], need
	for _, i := range t.dirty {
		s := t.slots[i]
		if s.g != tombstone {
			live++
		}
		// A range's head is its entry under the granule of start.
		if s.g == granule(s.start) {
			heads = append(heads, s)
		}
	}
	size := len(t.slots)
	for live*2 > size {
		size *= 2
	}
	t.Clear()
	if size != len(t.slots) {
		t.resize(size)
	}
	for _, h := range heads {
		t.place(h.start, h.end)
	}
	t.n, t.heads = len(heads), heads[:0]
}

// checkInvariants validates the table against its own contents; used
// by the property tests. Every live range is reachable from each of its
// granules, Len counts the live ranges, the dirty list is exactly the
// non-empty slots, and no live slot sits past an empty one in its
// probe chain.
func (t *Tree) checkInvariants() error {
	nonEmpty, heads := 0, 0
	for i, s := range t.slots {
		if s.g == 0 {
			continue
		}
		nonEmpty++
		if s.g == tombstone {
			continue
		}
		if s.start >= s.end || s.g < granule(s.start) || s.g > granule(s.end-1) {
			return fmt.Errorf("slot %d: granule %d outside [%d,%d)", i, s.g-1, s.start, s.end)
		}
		if s.g == granule(s.start) {
			heads++
			for g := s.g; g <= granule(s.end-1); g++ {
				if a := max(s.start, (g-1)<<granuleShift); !t.Contains(a, 1) {
					return fmt.Errorf("range [%d,%d) unreachable from granule %d", s.start, s.end, g-1)
				}
			}
		}
		for j := t.home(s.g); j != uint64(i); j = (j + 1) & t.mask {
			if t.slots[j].g == 0 {
				return fmt.Errorf("slot %d [%d,%d) lies past empty slot %d in its chain", i, s.start, s.end, j)
			}
		}
	}
	if heads != t.n || nonEmpty != len(t.dirty) {
		return fmt.Errorf("Len=%d dirty=%d but %d ranges, %d non-empty slots", t.n, len(t.dirty), heads, nonEmpty)
	}
	if len(t.dirty)*2 > len(t.slots) {
		return fmt.Errorf("load %d/%d above ½", len(t.dirty), len(t.slots))
	}
	return nil
}
