package capture

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func kinds() []Kind { return []Kind{KindTree, KindArray, KindFilter} }

func TestKindString(t *testing.T) {
	want := map[Kind]string{KindTree: "tree", KindArray: "array", KindFilter: "filter", Kind(99): "unknown"}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), w)
		}
	}
}

func TestBasicInsertContains(t *testing.T) {
	for _, k := range kinds() {
		l := New(k)
		l.Insert(100, 110)
		l.Insert(200, 201)
		cases := []struct {
			addr mem.Addr
			size int
			want bool
		}{
			{100, 1, true}, {109, 1, true}, {110, 1, false}, {99, 1, false},
			{100, 10, true}, {100, 11, false}, {105, 5, true}, {105, 6, false},
			{200, 1, true}, {201, 1, false}, {150, 1, false},
		}
		for _, c := range cases {
			if got := l.Contains(c.addr, c.size); got != c.want {
				t.Errorf("%v: Contains(%d,%d) = %v, want %v", k, c.addr, c.size, got, c.want)
			}
		}
	}
}

func TestRemove(t *testing.T) {
	for _, k := range kinds() {
		l := New(k)
		l.Insert(10, 20)
		l.Insert(30, 40)
		l.Remove(10, 20)
		if l.Contains(15, 1) {
			t.Errorf("%v: contains removed range", k)
		}
		if !l.Contains(35, 1) {
			t.Errorf("%v: lost surviving range", k)
		}
		l.Remove(50, 60) // absent: no-op
		if !l.Contains(35, 1) {
			t.Errorf("%v: no-op remove damaged log", k)
		}
	}
}

// TestRemoveMismatchedEnd pins the Log contract for the range-keeping
// kinds: a recorded start with any other end is not that range, and
// removing it changes nothing.
func TestRemoveMismatchedEnd(t *testing.T) {
	for _, k := range []Kind{KindTree, KindArray} {
		l := New(k)
		l.Insert(10, 20)
		l.Insert(100, 140) // three granules
		for _, r := range [][2]mem.Addr{{10, 19}, {10, 21}, {10, 40}, {100, 112}, {100, 139}, {100, 141}, {100, 200}} {
			l.Remove(r[0], r[1])
			if l.Len() != 2 || !l.Contains(10, 10) || !l.Contains(100, 40) {
				t.Fatalf("%v: Remove(%d,%d) of a range never inserted changed the log", k, r[0], r[1])
			}
		}
		l.Remove(100, 140)
		if l.Len() != 1 || l.Contains(100, 1) || l.Contains(139, 1) || !l.Contains(10, 10) {
			t.Errorf("%v: exact Remove after mismatched ones did not take", k)
		}
	}
}

func TestClear(t *testing.T) {
	for _, k := range kinds() {
		l := New(k)
		for i := mem.Addr(0); i < 20; i++ {
			l.Insert(100+i*10, 100+i*10+5)
		}
		l.Clear()
		if l.Len() != 0 {
			t.Errorf("%v: Len after Clear = %d", k, l.Len())
		}
		for i := mem.Addr(0); i < 20; i++ {
			if l.Contains(100+i*10, 1) {
				t.Errorf("%v: contains after Clear", k)
			}
		}
		// Log must be reusable after Clear.
		l.Insert(7, 9)
		if !l.Contains(7, 2) {
			t.Errorf("%v: unusable after Clear", k)
		}
	}
}

func TestTreePrecise(t *testing.T) {
	tr := NewTree()
	rng := rand.New(rand.NewSource(1))
	ref := model{} // start → end
	next := mem.Addr(1)
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			n := mem.Addr(1 + rng.Intn(16))
			if rng.Intn(8) == 0 { // multi-granule block: up to 257 slots
				n = mem.Addr(1 + rng.Intn(4096))
			}
			tr.Insert(next, next+n)
			ref[next] = next + n
			next += n + mem.Addr(rng.Intn(4))
		case 2:
			for s, e := range ref { // delete an arbitrary one
				tr.Remove(s, e)
				delete(ref, s)
				break
			}
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if next < 1<<16 || len(tr.slots) <= minSlots {
		t.Fatalf("universe %d, table %d slots: growth not exercised", next, len(tr.slots))
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	for s, e := range ref {
		if !tr.Contains(s, int(e-s)) {
			t.Errorf("missing [%d,%d)", s, e)
		}
		if tr.Contains(s, int(e-s)+1) {
			t.Errorf("over-contains past [%d,%d)", s, e)
		}
		if tr.Contains(s-1, 2) {
			t.Errorf("over-contains before [%d,%d)", s, e)
		}
	}
}

// treeCase is one directed probe: Contains(addr, size) must equal want.
type treeCase struct {
	addr mem.Addr
	size int
	want bool
}

func checkTree(t *testing.T, tr *Tree, cases []treeCase) {
	t.Helper()
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if got := tr.Contains(c.addr, c.size); got != c.want {
			t.Errorf("Contains(%d,%d) = %v, want %v", c.addr, c.size, got, c.want)
		}
	}
}

// A range straddling a granule boundary is entered under both granules
// and answers from either side; its neighbours in those granules miss.
func TestTreeGranuleStraddle(t *testing.T) {
	tr := NewTree()
	tr.Insert(28, 36) // granules 1 and 2
	checkTree(t, tr, []treeCase{
		{27, 1, false}, {28, 1, true}, {31, 1, true}, {32, 1, true}, {35, 1, true}, {36, 1, false},
		{30, 4, true}, {28, 8, true}, {28, 9, false}, {31, 2, true}, {35, 2, false},
		{16, 1, false}, {47, 1, false}, {0, 1, false}, {48, 1, false},
	})
	tr.Insert(64, 64+16*5+1) // six granules, the last holding one word
	checkTree(t, tr, []treeCase{
		{63, 1, false}, {64, 81, true}, {64, 82, false}, {144, 1, true}, {145, 1, false},
		{79, 2, true}, {95, 2, true}, {143, 2, true}, {144, 2, false},
	})
	tr.Remove(28, 36)
	checkTree(t, tr, []treeCase{{28, 1, false}, {32, 1, false}, {35, 1, false}, {64, 81, true}})
}

// Several small blocks inside one granule share a probe chain; each
// answers for its own words only, and an access spanning two adjacent
// blocks is not inside one range.
func TestTreeBlocksSharingGranule(t *testing.T) {
	tr := NewTree()
	tr.Insert(160, 161) // 1 word
	tr.Insert(161, 163) // 2 words, adjacent
	tr.Insert(164, 167) // 3 words, after a one-word hole
	tr.Insert(170, 173)
	tr.Insert(174, 176) // all in granule 10
	checkTree(t, tr, []treeCase{
		{160, 1, true}, {161, 2, true}, {160, 2, false}, {160, 3, false}, {162, 2, false},
		{163, 1, false}, {164, 3, true}, {164, 4, false}, {166, 1, true}, {167, 1, false},
		{169, 1, false}, {170, 3, true}, {172, 2, false}, {173, 1, false}, {174, 2, true}, {175, 2, false},
	})
	tr.Remove(161, 163)
	checkTree(t, tr, []treeCase{{160, 1, true}, {161, 1, false}, {162, 1, false}, {164, 3, true}, {174, 2, true}})
	if tr.Len() != 4 {
		t.Errorf("Len = %d, want 4", tr.Len())
	}
}

// Removing a range and inserting the same one again finds it again,
// however often, and leaves no second copy behind.
func TestTreeRemoveReinsert(t *testing.T) {
	tr := NewTree()
	tr.Insert(500, 540)
	tr.Insert(540, 541)
	for i := 0; i < 200; i++ {
		tr.Remove(500, 540)
		checkTree(t, tr, []treeCase{{500, 1, false}, {520, 1, false}, {539, 1, false}, {540, 1, true}})
		tr.Insert(500, 540)
		checkTree(t, tr, []treeCase{{500, 40, true}, {500, 41, false}, {540, 1, true}})
		if tr.Len() != 2 {
			t.Fatalf("round %d: Len = %d, want 2", i, tr.Len())
		}
	}
	if len(tr.slots) != minSlots {
		t.Errorf("table grew to %d slots holding two ranges", len(tr.slots))
	}
}

// The per-thread annotation log never clears: insert/remove churn fills
// the table with tombstones, and the rehash that drops them must keep
// every live range and must not grow a table whose live load is small.
func TestTreeTombstoneChurnRehashes(t *testing.T) {
	tr := NewTree()
	tr.Insert(16, 20) // lives through every rehash
	tr.Insert(4000, 4100)
	ref := model{16: 20, 4000: 4100}
	rng := rand.New(rand.NewSource(7))
	var starts []mem.Addr
	next := mem.Addr(8192)
	for i := 0; i < 5000; i++ {
		if len(starts) < 6 || rng.Intn(2) == 0 {
			n := mem.Addr(1 + rng.Intn(40))
			tr.Insert(next, next+n)
			ref[next] = next + n
			starts = append(starts, next)
			next += n + mem.Addr(rng.Intn(20))
		} else {
			j := rng.Intn(len(starts))
			s := starts[j]
			starts[j] = starts[len(starts)-1]
			starts = starts[:len(starts)-1]
			tr.Remove(s, ref[s])
			delete(ref, s)
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		a := next - mem.Addr(rng.Intn(400))
		if got, want := tr.Contains(a, 1), ref.contains(a, 1); got != want {
			t.Fatalf("op %d: Contains(%d,1) = %v, want %v", i, a, got, want)
		}
	}
	for s, e := range ref {
		if !tr.Contains(s, int(e-s)) || tr.Contains(s, int(e-s)+1) {
			t.Errorf("range [%d,%d) wrong after churn", s, e)
		}
	}
	if tr.Len() != len(ref) {
		t.Errorf("Len = %d, want %d", tr.Len(), len(ref))
	}
	// ~2500 inserts passed through; only the live ones may size the
	// table (at most four slots each here, at load ½ or a doubling below).
	if len(tr.slots) > 4*4*max(minSlots, tr.Len()) {
		t.Errorf("%d slots for %d live ranges: tombstones sized the table", len(tr.slots), tr.Len())
	}
}

func TestTreeInsertOverlapPanics(t *testing.T) {
	for _, c := range []struct {
		name       string
		start, end mem.Addr
	}{
		{"tail of an earlier range", 15, 25},
		{"head of a later range", 5, 11},
		{"identical", 10, 20},
		{"inside", 12, 13},
		{"enclosing", 5, 60},
		{"first granule free, overlap in a later one", 64, 110}, // [100,200) below
		{"last word only", 199, 300},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := NewTree()
			tr.Insert(10, 20)
			tr.Insert(100, 200)
			defer func() {
				if recover() == nil {
					t.Errorf("no panic inserting [%d,%d)", c.start, c.end)
				}
			}()
			tr.Insert(c.start, c.end)
		})
	}
	// Touching is not overlapping.
	tr := NewTree()
	tr.Insert(10, 20)
	tr.Insert(20, 30)
	tr.Insert(5, 10)
	checkTree(t, tr, []treeCase{{5, 5, true}, {9, 2, false}, {19, 2, false}, {20, 10, true}})
}

func TestArrayOverflowConservative(t *testing.T) {
	a := NewArray(2)
	a.Insert(10, 20)
	a.Insert(30, 40)
	a.Insert(50, 60) // dropped
	if a.Drops() != 1 {
		t.Errorf("Drops = %d, want 1", a.Drops())
	}
	if a.Contains(55, 1) {
		t.Error("contains dropped range (false positive)")
	}
	if !a.Contains(15, 1) || !a.Contains(35, 1) {
		t.Error("lost tracked ranges")
	}
	a.Remove(50, 60) // dropped range: no-op
	a.Remove(10, 20)
	a.Insert(50, 60) // slot freed, now fits
	if !a.Contains(55, 1) {
		t.Error("slot not reusable after Remove")
	}
}

func TestFilterCollisionsAreFalseNegativesOnly(t *testing.T) {
	f := NewFilter(3) // 8 slots, heavy collisions
	var inserted []mem.Addr
	for i := mem.Addr(100); i < 150; i++ {
		f.Insert(i, i+1)
		inserted = append(inserted, i)
	}
	// No false positives for never-inserted addresses.
	for a := mem.Addr(1); a < 100; a++ {
		if f.Contains(a, 1) {
			t.Fatalf("false positive at %d", a)
		}
	}
	// The most recent insert always survives.
	last := inserted[len(inserted)-1]
	if !f.Contains(last, 1) {
		t.Error("latest insert evicted")
	}
	f.Clear()
	for _, a := range inserted {
		if f.Contains(a, 1) {
			t.Fatalf("contains %d after Clear", a)
		}
	}
}

func TestFilterMultiWordBlocks(t *testing.T) {
	f := NewFilter(12)
	f.Insert(1000, 1010)
	if !f.Contains(1000, 10) {
		t.Error("full block not contained")
	}
	if !f.Contains(1004, 3) {
		t.Error("inner window not contained")
	}
	if f.Contains(1008, 4) {
		t.Error("window past block end contained")
	}
	f.Remove(1000, 1010)
	if f.Contains(1005, 1) {
		t.Error("contains after Remove")
	}
	if f.Len() != 0 {
		t.Errorf("Len = %d after full Remove", f.Len())
	}
}

// model is the reference implementation for property testing.
type model map[mem.Addr]mem.Addr

// contains reports single-range containment (the tree/array contract).
func (m model) contains(a mem.Addr, size int) bool {
	for s, e := range m {
		if a >= s && a+mem.Addr(size) <= e {
			return true
		}
	}
	return false
}

// covered reports word-wise coverage: every accessed word lies in some
// recorded range. This is the actual safety requirement — an access is
// captured iff all its words are transaction-local — and is what the
// filter implements (it may span adjacent blocks).
func (m model) covered(a mem.Addr, size int) bool {
	for i := 0; i < size; i++ {
		w := a + mem.Addr(i)
		found := false
		for s, e := range m {
			if w >= s && w < e {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestPropertyConservative drives all three implementations with a
// random operation sequence and checks, after every step, the paper's
// correctness requirement: the tree is exact, and the array and filter
// never report true where the model says false.
func TestPropertyConservative(t *testing.T) {
	f := func(seed int64, nops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		logs := []Log{NewTree(), NewArray(3), NewFilter(4)}
		ref := model{}
		// Blocks are laid out upward from a random base in a universe
		// of 1<<16 words and more; one in four is multi-granule (up to
		// 4096 words) and one in four is followed by a wide hole.
		next := mem.Addr(1 + rng.Intn(1<<16))
		var starts []mem.Addr
		for op := 0; op < int(nops); op++ {
			switch rng.Intn(4) {
			case 0, 1: // insert
				n := mem.Addr(1 + rng.Intn(8))
				if rng.Intn(4) == 0 {
					n = mem.Addr(1 + rng.Intn(4096))
				}
				for _, l := range logs {
					l.Insert(next, next+n)
				}
				ref[next] = next + n
				starts = append(starts, next)
				next += n + mem.Addr(rng.Intn(3))
				if rng.Intn(4) == 0 {
					next += mem.Addr(rng.Intn(4096))
				}
			case 2: // remove a random previously inserted range
				if len(starts) == 0 {
					continue
				}
				i := rng.Intn(len(starts))
				s := starts[i]
				if e, ok := ref[s]; ok {
					for _, l := range logs {
						l.Remove(s, e)
					}
					delete(ref, s)
				}
			case 3: // clear
				if rng.Intn(8) == 0 {
					for _, l := range logs {
						l.Clear()
					}
					ref = model{}
					starts = starts[:0]
				}
			}
			if err := logs[0].(*Tree).checkInvariants(); err != nil {
				t.Log(err)
				return false
			}
			// Probe random addresses, and the words around the edges
			// of random blocks (live or already removed).
			for p := 0; p < 16; p++ {
				a := mem.Addr(rng.Intn(int(next) + 4))
				if p%2 == 1 && len(starts) > 0 {
					a = starts[rng.Intn(len(starts))] + mem.Addr(rng.Intn(12)) - 3
				}
				size := 1 + rng.Intn(3)
				want := ref.contains(a, size)
				if got := logs[0].Contains(a, size); got != want {
					t.Logf("tree Contains(%d,%d)=%v want %v", a, size, got, want)
					return false
				}
				if logs[1].Contains(a, size) && !want {
					t.Logf("array false positive at (%d,%d)", a, size)
					return false
				}
				if logs[2].Contains(a, size) && !ref.covered(a, size) {
					t.Logf("filter false positive at (%d,%d)", a, size)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown kind")
		}
	}()
	New(Kind(42))
}

func BenchmarkLogHit(b *testing.B) {
	for _, k := range kinds() {
		b.Run(k.String(), func(b *testing.B) {
			l := New(k)
			for i := mem.Addr(0); i < 4; i++ {
				l.Insert(1000+i*20, 1010+i*20)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !l.Contains(1005, 1) {
					b.Fatal("miss")
				}
			}
		})
	}
}

func BenchmarkLogMiss(b *testing.B) {
	for _, k := range kinds() {
		b.Run(k.String(), func(b *testing.B) {
			l := New(k)
			for i := mem.Addr(0); i < 4; i++ {
				l.Insert(1000+i*20, 1010+i*20)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if l.Contains(5000, 1) {
					b.Fatal("hit")
				}
			}
		})
	}
}

func BenchmarkLogInsertClear(b *testing.B) {
	for _, k := range kinds() {
		b.Run(k.String(), func(b *testing.B) {
			l := New(k)
			for i := 0; i < b.N; i++ {
				a := mem.Addr(1000 + (i%16)*32)
				l.Insert(a, a+16)
				if i%16 == 15 {
					l.Clear()
				}
			}
		})
	}
}
