package capture

import (
	"sort"
	"testing"

	"repro/internal/mem"
)

// The fuzz harness drives the log with the operation mix the STM
// produces — disjoint range inserts (allocations), exact removes
// (frees), containment probes, and clears (transaction end) — decoded
// from the fuzz input, against a range-set oracle. The contract under
// test is the paper's conservativeness requirement, that Contains never
// over-reports captured memory, and the precise tree's other half: it
// never under-reports either.

// oracleRange is one live range in the reference model.
type oracleRange struct{ start, end mem.Addr }

// oracle is the exact reference model: the sorted set of live ranges.
type oracle struct{ ranges []oracleRange }

func (o *oracle) overlaps(start, end mem.Addr) bool {
	for _, r := range o.ranges {
		if start < r.end && r.start < end {
			return true
		}
	}
	return false
}

func (o *oracle) insert(start, end mem.Addr) { o.ranges = append(o.ranges, oracleRange{start, end}) }

func (o *oracle) remove(i int) {
	o.ranges[i] = o.ranges[len(o.ranges)-1]
	o.ranges = o.ranges[:len(o.ranges)-1]
}

// contains reports whether [addr, addr+size) lies inside one live range.
func (o *oracle) contains(addr mem.Addr, size int) bool {
	for _, r := range o.ranges {
		if addr >= r.start && addr+mem.Addr(size) <= r.end {
			return true
		}
	}
	return false
}

// The fuzz universe and block sizes are large enough that the precise
// log grows past its initial table and enters ranges under hundreds of
// granules; "near" addressing keeps small blocks adjacent so they also
// share granules.
const (
	fuzzBase     = 64
	fuzzUniverse = 1 << 16
	fuzzMaxSize  = 4096
	fuzzOpBytes  = 5
	fuzzMaxOps   = 256
)

// fuzzLog interprets data as an op sequence over the fresh log l, five
// bytes per op: opcode, two address bytes, two size bytes. Every probe
// must agree with the oracle exactly, and the table's invariants must
// hold after every mutation.
func fuzzLog(t *testing.T, l *Tree, data []byte) {
	t.Helper()
	var o oracle
	check := func() {
		if err := l.checkInvariants(); err != nil {
			t.Fatalf("%v (live %v)", err, o.sorted())
		}
	}
	probe := func(where string, addr mem.Addr, size int) {
		if got, want := l.Contains(addr, size), o.contains(addr, size); got != want {
			t.Fatalf("%s Contains(%d,%d) = %v, oracle says %v (live %v)",
				where, addr, size, got, want, o.sorted())
		}
	}
	// The oracle and the invariant check are linear in the live ranges
	// and the table, so an input is worth its first fuzzMaxOps ops only;
	// longer ones the mutator grows would stall the fuzzing loop.
	data = data[:min(len(data), fuzzMaxOps*fuzzOpBytes)]
	var last mem.Addr // end of the most recent insert
	for i := 0; i+fuzzOpBytes <= len(data); i += fuzzOpBytes {
		b := data[i : i+fuzzOpBytes]
		op := b[0] % 8
		// Word 0 is mem.Nil and never allocated; starting above it
		// also keeps the edge probes below from wrapping.
		addr := fuzzBase + (mem.Addr(b[1]) | mem.Addr(b[2])<<8)
		if b[0]&0x80 != 0 && last != 0 { // near: just past the last block
			addr = fuzzBase + (last-fuzzBase+mem.Addr(b[1]%4))%fuzzUniverse
		}
		size := int(b[3]%48) + 1
		if b[4]&3 == 0 { // a quarter of the ops use multi-granule blocks
			size = (int(b[3])|int(b[4])<<8)%fuzzMaxSize + 1
		}
		end := addr + mem.Addr(size)
		switch {
		case op <= 2: // insert a fresh disjoint range
			if o.overlaps(addr, end) {
				continue // allocator never produces overlapping blocks
			}
			l.Insert(addr, end)
			o.insert(addr, end)
			last = end
			check()
		case op == 3: // remove a live range, chosen by the input
			if len(o.ranges) == 0 {
				continue
			}
			j := int(b[1]) % len(o.ranges)
			r := o.ranges[j]
			if b[3]&1 == 0 { // first with the wrong end: must be a no-op
				l.Remove(r.start, r.end+1)
				check()
				probe("after mismatched Remove", r.start, int(r.end-r.start))
			}
			l.Remove(r.start, r.end)
			o.remove(j)
			check()
		case op == 4: // remove an absent range: must be a no-op
			if o.overlaps(addr, end) {
				continue
			}
			l.Remove(addr, end)
			check()
		case op == 5 && b[1]%16 == 0: // transaction end
			l.Clear()
			o.ranges = o.ranges[:0]
			check()
		default: // containment probe
			probe("op", addr, size)
		}
	}
	// Epilogue at the final state: every probe is checked as above —
	// at both edges of every live range, at each granule boundary
	// inside it, and on a sparse sweep of the universe.
	for _, r := range o.ranges {
		for _, size := range []int{1, 3} {
			probe("edge", r.start-1, size)
			probe("edge", r.start, size)
			probe("edge", r.end-mem.Addr(size), size) // may start before r
			probe("edge", r.end-1, size)
			probe("edge", r.end, size)
		}
		for a := r.start | 15; a < r.end; a += 16 {
			probe("granule boundary", a, 2)
		}
		if !l.Contains(r.start, int(r.end-r.start)) {
			t.Fatalf("epilogue false negative on [%d,%d)", r.start, r.end)
		}
	}
	for a := mem.Addr(0); a < fuzzBase+fuzzUniverse+fuzzMaxSize; a += 131 {
		probe("sweep", a, 1)
	}
	if want := len(o.ranges); l.Len() != want {
		t.Fatalf("Len = %d, oracle has %d ranges", l.Len(), want)
	}
	// Clear must empty the log: no probe may hit afterwards.
	l.Clear()
	check()
	for _, r := range o.ranges {
		if l.Contains(r.start, 1) || l.Contains(r.end-1, 1) {
			t.Fatalf("[%d,%d) still contained after Clear", r.start, r.end)
		}
	}
}

func (o *oracle) sorted() []oracleRange {
	rs := append([]oracleRange(nil), o.ranges...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].start < rs[j].start })
	return rs
}

// seedCorpus feeds FuzzTree inputs that reach every op and every
// shape the table distinguishes: dense near-inserts sharing granules,
// multi-granule blocks, remove/probe interleavings, remove-reinsert,
// clears, tombstone churn long enough to rehash, one block freed and
// re-allocated over and over, and short inputs.
func seedCorpus(f *testing.F) {
	const near = 0x80
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 5, 1})
	f.Add([]byte{0, 10, 0, 5, 1, 7, 10, 0, 5, 1, 3, 0, 0, 0, 1})
	// A block straddling a granule boundary, probed across it.
	f.Add([]byte{0, 12, 0, 7, 1, 7, 14, 0, 3, 1, 7, 15, 0, 4, 1, 7, 19, 0, 1, 1})
	// A 4096-word block and a 1000-word block: growth, then edges.
	f.Add([]byte{0, 0, 1, 255, 15 << 2, 0, 0, 32, 231, 3 << 2, 7, 255, 16, 1, 1, 3, 0, 0, 1, 1})
	// Clear between inserts, then a probe.
	f.Add([]byte{0, 9, 0, 9, 1, 5, 16, 0, 2, 1, 0, 9, 0, 9, 1, 7, 9, 0, 9, 1})
	// Remove an absent range, insert it, remove it, reinsert it.
	f.Add([]byte{4, 33, 0, 12, 1, 0, 33, 0, 12, 1, 3, 0, 0, 1, 1, 0, 33, 0, 12, 1, 7, 33, 0, 12, 1})
	// Forty 1–3-word blocks packed end to end, so most share a granule.
	var packed []byte
	for i := 0; i < 40; i++ {
		packed = append(packed, near, 0, 0, byte(i%3), 1)
	}
	f.Add(append(packed, 7, 20, 0, 2, 1))
	// The priv pattern: insert/remove churn with no Clear, enough
	// tombstones to force a rehash at the initial table size.
	var churn []byte
	for i := 0; i < 60; i++ {
		churn = append(churn, near|1, byte(i), 0, byte(i*7), 1, 3, 0, 0, byte(i), 1)
	}
	f.Add(churn)
	// One block freed and re-allocated beside a live one, with no Clear:
	// each Insert takes the tombstones the last Remove left.
	reuse := []byte{0, 136, 0, 3, 1}
	for i := 0; i < 40; i++ {
		reuse = append(reuse, 0, 100, 0, 5, 1, 3, 1, 0, 1, 1)
	}
	f.Add(append(reuse, 7, 100, 0, 2, 1))
	longer := make([]byte, 400)
	for i := range longer {
		longer[i] = byte(i*37 + 11)
	}
	f.Add(longer)
}

// FuzzTree fuzzes the precise log (the granule-hashed range table; the
// target keeps the name CI's fuzz-smoke job runs): it must agree with
// the oracle exactly, and its internal invariants must hold.
func FuzzTree(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzLog(t, NewTree(), data)
	})
}
