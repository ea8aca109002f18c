package mem

import (
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Tests of the space's backing store (an anonymous mapping on unix, see
// words_unix.go) and of the two things that rest on "memory never
// handed out reads zero": Checksum's zero-run shortcut and Alloc not
// clearing freshly carved blocks.

func TestNewSpaceReadsZero(t *testing.T) {
	s := NewSpace(Config{GlobalWords: 1 << 10, HeapWords: 1 << 22, StackWords: 1 << 10, MaxThreads: 4})
	last := Addr(s.Size() - 1)
	for _, a := range []Addr{0, 1, last} {
		if v := s.Load(a); v != 0 {
			t.Fatalf("word %d of a new space = %#x, want 0", a, v)
		}
	}
	for a := Addr(0); a <= last; a += 4093 { // odd stride: every page offset
		if v := s.Load(a); v != 0 {
			t.Fatalf("word %d of a new space = %#x, want 0", a, v)
		}
	}
	s.Store(last, 7)
	if s.Load(last) != 7 || s.Load(last-1) != 0 {
		t.Error("store to the last word did not land there")
	}
}

// An address past the end must fail Go's bounds check, not fault in the
// mapping (or, worse, land in whatever is mapped behind it).
func TestOutOfRangeAddrPanics(t *testing.T) {
	s := testSpace()
	for name, access := range map[string]func(Addr){
		"Load":       func(a Addr) { s.Load(a) },
		"Store":      func(a Addr) { s.Store(a, 1) },
		"StorePlain": func(a Addr) { s.StorePlain(a, 1) },
		"CAS":        func(a Addr) { s.CAS(a, 0, 1) },
	} {
		for _, a := range []Addr{Addr(s.Size()), Addr(s.Size()) + 1<<20, ^Addr(0)} {
			func() {
				defer func() {
					err, ok := recover().(runtime.Error)
					if !ok || !strings.Contains(err.Error(), "index out of range") {
						t.Errorf("%s(%d): recovered %v, want an index-out-of-range runtime error", name, a, err)
					}
				}()
				access(a)
				t.Errorf("%s(%d) did not panic", name, a)
			}()
		}
	}
}

// A plain store lands on its word and on no other, in every region.
func TestStorePlainLands(t *testing.T) {
	s := testSpace()
	heap, _ := s.HeapRange()
	_, stackHigh := s.StackRange(2)
	for i, a := range []Addr{1, heap, heap + 2, stackHigh - 1, Addr(s.Size() - 2)} {
		v := uint64(i+1) * 0x0101_0101_0101_0101
		before, after := s.Load(a-1), s.Load(a+1)
		s.StorePlain(a, v)
		if got := s.Load(a); got != v {
			t.Errorf("StorePlain(%d, %#x) then Load = %#x", a, v, got)
		}
		if s.Load(a-1) != before || s.Load(a+1) != after {
			t.Errorf("StorePlain(%d) changed a neighbouring word", a)
		}
	}
}

// Zero clears exactly [a, a+n), across the boundary between two heap
// blocks (header included) and across a page of the mapping.
func TestZeroAcrossBlockBoundary(t *testing.T) {
	s := testSpace()
	al := NewAllocator(s)
	p1 := al.Alloc(64)
	p2 := al.Alloc(64)
	if p2 != p1+65 {
		t.Fatalf("blocks at %d and %d are not adjacent", p1, p2)
	}
	page := Addr(4096 / 8)
	crossPage := (p1/page + 1) * page // first word of the next page
	for _, r := range []struct{ a, n Addr }{
		{p1 + 32, 64},       // second half of p1, p2's header, first half of p2
		{crossPage - 5, 10}, // the last words of one page, the first of the next
	} {
		lo, hi := r.a-8, r.a+r.n+8
		for a := lo; a < hi; a++ {
			s.Store(a, ^uint64(0))
		}
		s.Zero(r.a, int(r.n))
		for a := lo; a < hi; a++ {
			want := ^uint64(0)
			if a >= r.a && a < r.a+r.n {
				want = 0
			}
			if got := s.Load(a); got != want {
				t.Fatalf("after Zero(%d, %d): word %d = %#x, want %#x", r.a, r.n, a, got, want)
			}
		}
	}
}

func TestRestoreFillsTheSpace(t *testing.T) {
	s := testSpace()
	err := s.Restore(func(words []uint64) error {
		if len(words) != s.Size() {
			t.Fatalf("Restore handed %d words, space has %d", len(words), s.Size())
		}
		for i := range words {
			words[i] = uint64(i) * 3
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint64, s.Size())
	s.ReadWords(buf, 0)
	for i, v := range buf {
		if v != uint64(i)*3 || s.Load(Addr(i)) != v {
			t.Fatalf("word %d = %d (Load %d), want %d", i, v, s.Load(Addr(i)), i*3)
		}
	}
}

// mappedBytes reads the process's total mapped size from
// /proc/self/statm (first field, in pages).
func mappedBytes(t *testing.T) int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Skipf("no /proc/self/statm: %v", err)
	}
	pages, err := strconv.ParseInt(strings.Fields(string(b))[0], 10, 64)
	if err != nil {
		t.Fatalf("parsing statm %q: %v", b, err)
	}
	return pages * int64(os.Getpagesize())
}

// A dropped space gives its mapping back: 64 one-GiB spaces, created
// and dropped one after another, leave the process no more than one
// space larger than it started.
func TestDroppedSpacesAreUnmapped(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/statm")
	}
	const spaceBytes = 1 << 30
	cfg := Config{GlobalWords: 1 << 10, HeapWords: spaceBytes/8 - 1<<20, StackWords: 1 << 10, MaxThreads: 4}
	runtime.GC()
	before := mappedBytes(t)
	for i := 0; i < 64; i++ {
		s := NewSpace(cfg)
		s.Store(Addr(s.Size()-1), uint64(i)) // touch it: the mapping is real
		runtime.GC()
	}
	// Cleanups run on their own goroutine some time after the cycle that
	// found the space unreachable; wait for the event, bounded.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		grown := mappedBytes(t) - before
		if grown <= spaceBytes {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("process still maps %d MiB more than before 64 dropped 1 GiB spaces", grown>>20)
		}
		time.Sleep(time.Millisecond)
	}
}

// plainChecksum is the reference: FNV-1a over every word.
func plainChecksum(s *Space) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < s.Size(); i++ {
		h = (h ^ s.Load(Addr(i))) * 1099511628211
	}
	return h
}

func TestChecksumMatchesPlainLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(what string, s *Space) {
		t.Helper()
		if got, want := s.Checksum(), plainChecksum(s); got != want {
			t.Fatalf("%s: Checksum = %#x, plain loop = %#x", what, got, want)
		}
	}
	for round := 0; round < 200; round++ {
		cfg := Config{
			GlobalWords: 1 + rng.Intn(300),
			HeapWords:   3*spanWords + rng.Intn(1<<16),
			StackWords:  1 + rng.Intn(200),
			MaxThreads:  1 + rng.Intn(4),
		}
		s := NewSpace(cfg)
		check("fresh", s)

		// Globals: nothing, some, or all of the region, random contents.
		for left := rng.Intn(cfg.GlobalWords + 1); left > 0; {
			n := 1 + rng.Intn(left)
			a := s.AllocGlobal(n)
			for i := 0; i < n; i++ {
				s.Store(a+Addr(i), rng.Uint64())
			}
			left -= n
		}
		check("globals", s)

		// Heap: blocks of every kind (class, jumbo class, large), filled,
		// some freed and reallocated, until a random share is carved.
		al := NewAllocator(s)
		budget := rng.Intn(cfg.HeapWords - 2*spanWords)
		var live []Addr
		for s.HeapNext()-uint64(s.heapStart) < uint64(budget) {
			n := 1 + rng.Intn(64)
			if rng.Intn(50) == 0 {
				n = 1 + rng.Intn(spanWords)
			}
			if int(uint64(s.heapEnd)-s.HeapNext()) < n+1+spanWords {
				break
			}
			p := al.Alloc(n)
			for i := 0; i < n; i++ {
				s.Store(p+Addr(i), rng.Uint64())
			}
			live = append(live, p)
			if rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				al.Free(live[k])
				live = append(live[:k], live[k+1:]...)
			}
		}
		check("heap", s)

		// Stacks: frames pushed, scribbled on and popped again.
		for tid := 0; tid < cfg.MaxThreads; tid++ {
			st := NewStack(s, tid)
			mark := st.SP()
			f := st.Push(1 + rng.Intn(cfg.StackWords))
			s.Store(f, rng.Uint64())
			if rng.Intn(2) == 0 {
				st.Pop(mark)
			}
		}
		check("stacks", s)
	}

	// The two regions carved to their last word.
	s := NewSpace(Config{GlobalWords: 8, HeapWords: spanWords, StackWords: 4, MaxThreads: 1})
	s.Store(s.AllocGlobal(8)+7, 1)
	p := NewAllocator(s).Alloc(1)
	s.Store(p, 2)
	if s.HeapNext() != uint64(s.heapEnd) {
		t.Fatalf("heap not exhausted: next %d, end %d", s.HeapNext(), s.heapEnd)
	}
	check("full", s)
}

// Every block Alloc returns reads zero across its whole payload, whether
// it was carved fresh (not cleared: never written) or recycled from a
// free list (cleared), across all size classes and the large path.
func TestAllocPayloadReadsZero(t *testing.T) {
	s := NewSpace(Config{GlobalWords: 16, HeapWords: 1 << 22, StackWords: 16, MaxThreads: 1})
	al := NewAllocator(s)
	rng := rand.New(rand.NewSource(2))
	sizes := append([]int{classSizes[len(classSizes)-1] + 1, 20000}, classSizes...)
	for _, cs := range classSizes[1:] {
		sizes = append(sizes, cs-1) // rounds up into the class
	}
	var live []Addr
	for round := 0; round < 6; round++ {
		rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		for _, n := range sizes {
			p := al.Alloc(n)
			size := al.BlockSize(p)
			if size < n {
				t.Fatalf("Alloc(%d): block of %d words", n, size)
			}
			for i := 0; i < size; i++ {
				if v := s.Load(p + Addr(i)); v != 0 {
					t.Fatalf("round %d: Alloc(%d) payload word %d = %#x, want 0", round, n, i, v)
				}
			}
			for i := 0; i < size; i++ {
				s.Store(p+Addr(i), ^uint64(0))
			}
			live = append(live, p)
			// Free about half of what is live, so later rounds mix
			// recycled blocks with fresh ones in every class.
			if rng.Intn(2) == 0 {
				k := rng.Intn(len(live))
				al.Free(live[k])
				live = append(live[:k], live[k+1:]...)
			}
		}
	}
}
