package tm_test

// Black-box tests of the typed references: round-trips for each
// reference kind, provenance defaults on each allocation path, and
// the elision behaviour the provenance buys.

import (
	"testing"

	"repro/tm"
)

func smallMem() tm.Option {
	return tm.WithMemory(tm.MemConfig{
		GlobalWords: 1 << 8, HeapWords: 1 << 14, StackWords: 1 << 10, MaxThreads: 4,
	})
}

func TestWordRoundTrip(t *testing.T) {
	rt := tm.Open(smallMem())
	th := rt.Thread(0)
	g := rt.AllocGlobal(4)

	g.Word(1).Poke(rt, 7)
	if v := g.Word(1).Peek(rt); v != 7 {
		t.Fatalf("Peek after Poke = %d", v)
	}
	th.Atomic(func(tx *tm.Tx) {
		if v := g.Word(1).Load(tx); v != 7 {
			t.Errorf("Load = %d, want 7", v)
		}
		g.Word(1).Store(tx, 40)
		if v := g.Word(1).Add(tx, 2); v != 42 {
			t.Errorf("Add = %d, want 42", v)
		}
	})
	if v := g.Word(1).Peek(rt); v != 42 {
		t.Errorf("after commit = %d, want 42", v)
	}
	rt.Validate()
}

func TestFloatRoundTrip(t *testing.T) {
	rt := tm.Open(smallMem())
	th := rt.Thread(0)
	g := rt.AllocGlobal(2)

	g.Float(0).Poke(rt, 3.25)
	th.Atomic(func(tx *tm.Tx) {
		v := g.Float(0).Load(tx)
		g.Float(1).Store(tx, v*2)
	})
	if v := g.Float(1).Peek(rt); v != 6.5 {
		t.Errorf("float round-trip = %v, want 6.5", v)
	}
}

func TestPtrRoundTripAndNil(t *testing.T) {
	rt := tm.Open(smallMem())
	th := rt.Thread(0)
	head := rt.AllocGlobal(1).Ptr(0)

	if !head.Peek(rt).IsNil() {
		t.Fatal("fresh pointer cell not nil")
	}
	th.Atomic(func(tx *tm.Tx) {
		node := tx.Alloc(2)
		node.Word(0).Store(tx, 99)
		node.Ptr(1).Store(tx, head.Load(tx)) // nil link
		head.Store(tx, node)
	})
	node := head.Peek(rt)
	if node.IsNil() {
		t.Fatal("head still nil after commit")
	}
	if v := node.Word(0).Peek(rt); v != 99 {
		t.Errorf("node value = %d, want 99", v)
	}
	if !node.Ptr(1).Peek(rt).IsNil() {
		t.Error("link should be nil")
	}
}

func TestProvenanceDefaults(t *testing.T) {
	rt := tm.Open(smallMem())
	th := rt.Thread(0)

	if p := rt.AllocGlobal(2).Prov(); p != tm.ProvShared {
		t.Errorf("AllocGlobal provenance = %v, want shared", p)
	}
	if p := th.Alloc(2).Prov(); p != tm.ProvUnknown {
		t.Errorf("Thread.Alloc provenance = %v, want unknown", p)
	}
	head := rt.AllocGlobal(1).Ptr(0)
	th.Atomic(func(tx *tm.Tx) {
		fresh := tx.Alloc(2)
		if p := fresh.Prov(); p != tm.ProvFresh {
			t.Errorf("Tx.Alloc provenance = %v, want fresh", p)
		}
		if p := fresh.At(1).Prov(); p != tm.ProvFresh {
			t.Errorf("sub-view provenance = %v, want fresh (inherited)", p)
		}
		stack := tx.StackAlloc(2)
		if p := stack.Prov(); p != tm.ProvStack {
			t.Errorf("StackAlloc provenance = %v, want stack", p)
		}
		head.Store(tx, fresh)
		if p := head.Load(tx).Prov(); p != tm.ProvUnknown {
			t.Errorf("Ptr.Load provenance = %v, want unknown", p)
		}
		if p := fresh.WithProv(tm.ProvShared).Prov(); p != tm.ProvShared {
			t.Errorf("WithProv = %v, want shared", p)
		}
	})
}

// TestProvenanceDrivesStaticElision: under the compiler profile, a
// fresh reference's stores are elided statically while shared stores
// keep the barrier — without the call site naming any access
// descriptor.
func TestProvenanceDrivesStaticElision(t *testing.T) {
	rt := tm.Open(append(tm.CompilerElision().With(tm.WithVerifyElision()).Options(), smallMem())...)
	th := rt.Thread(0)
	g := rt.AllocGlobal(1)
	th.Atomic(func(tx *tm.Tx) {
		rec := tx.Alloc(4)
		for i := 0; i < 4; i++ {
			rec.Word(i).Store(tx, uint64(i))
		}
		g.Word(0).Store(tx, rec.Word(2).Load(tx))
	})
	s := rt.Snapshot().Stats
	if s.WriteElStatic != 4 {
		t.Errorf("static write elisions = %d, want 4 (the fresh record)", s.WriteElStatic)
	}
	if s.WriteFull != 1 {
		t.Errorf("full write barriers = %d, want 1 (the shared word)", s.WriteFull)
	}
	if s.ReadElStatic != 1 {
		t.Errorf("static read elisions = %d, want 1", s.ReadElStatic)
	}
}

// TestRuntimeCaptureElidesFreshBlocks: the same workload under runtime
// capture analysis elides dynamically via the allocation log.
func TestRuntimeCaptureElidesFreshBlocks(t *testing.T) {
	rt := tm.Open(append(tm.RuntimeAll(tm.LogTree).Options(), smallMem())...)
	th := rt.Thread(0)
	keep := rt.AllocGlobal(1).Ptr(0)
	th.Atomic(func(tx *tm.Tx) {
		rec := tx.Alloc(4)
		for i := 0; i < 4; i++ {
			rec.Word(i).Store(tx, uint64(i))
		}
		keep.Store(tx, rec)
	})
	if s := rt.Snapshot().Stats; s.WriteElHeap != 4 {
		t.Errorf("runtime heap elisions = %d, want 4", s.WriteElHeap)
	}
}

func TestAbortRollsBackTypedStores(t *testing.T) {
	rt := tm.Open(smallMem())
	th := rt.Thread(0)
	g := rt.AllocGlobal(1)
	g.Word(0).Poke(rt, 5)
	committed := th.Atomic(func(tx *tm.Tx) {
		g.Word(0).Store(tx, 123)
		tx.Abort()
	})
	if committed {
		t.Error("aborted transaction reported committed")
	}
	if v := g.Word(0).Peek(rt); v != 5 {
		t.Errorf("aborted store visible: %d, want 5", v)
	}
	rt.Validate()
}

func TestRefSafetyPanics(t *testing.T) {
	rt := tm.Open(smallMem())
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	g := rt.AllocGlobal(2)
	expectPanic("out of range", func() { g.Word(2) })
	expectPanic("negative", func() { g.Word(-1) })
	var nilRef tm.Struct
	expectPanic("nil deref", func() { nilRef.Word(0) })
	expectPanic("unsized private block", func() {
		head := rt.AllocGlobal(1).Ptr(0)
		rt.Thread(0).AddPrivateBlock(head.Peek(rt))
	})
}

func TestParallelThreadsAndStats(t *testing.T) {
	rt := tm.Open(smallMem())
	cell := rt.AllocGlobal(1).Word(0)
	rt.Parallel(4, func(th *tm.Thread, tid, ntotal int) {
		if ntotal != 4 {
			t.Errorf("ntotal = %d", ntotal)
		}
		if th.ID() != tid {
			t.Errorf("thread id %d != tid %d", th.ID(), tid)
		}
		for i := 0; i < 100; i++ {
			th.Atomic(func(tx *tm.Tx) { cell.Add(tx, 1) })
		}
	})
	if v := cell.Peek(rt); v != 400 {
		t.Errorf("counter = %d, want 400", v)
	}
	if s := rt.Snapshot().Stats; s.Commits < 400 {
		t.Errorf("commits = %d, want >= 400", s.Commits)
	}
	rt.Validate()
}
