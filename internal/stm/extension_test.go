package stm

// Tests for the definitely-shared extension (the paper's future-work
// direction implemented here): accesses carrying ProvShared bypass the
// runtime capture checks and go straight to the full barrier.

import (
	"sync"
	"testing"

	"repro/internal/mem"
)

func TestSkipSharedBypassesChecks(t *testing.T) {
	cfg := RuntimeAll()
	cfg.SkipSharedChecks = true
	rt := newRT(cfg)
	th := rt.Thread(0)
	g := rt.Space().AllocGlobal(2)
	th.Atomic(func(tx *Tx) {
		tx.Store(g, 1, AccShared) // definitely shared: checks skipped
		_ = tx.Load(g, AccShared) // likewise
		tx.Store(g+1, 2, AccAuto) // unknown: checks run (miss)
		p := tx.Alloc(2)
		tx.Store(p, 3, AccAuto) // unknown: checks run (hit)
	})
	s := rt.Stats()
	if s.ReadSkipShared != 1 || s.WriteSkipShared != 1 {
		t.Errorf("skip counts r=%d w=%d, want 1/1", s.ReadSkipShared, s.WriteSkipShared)
	}
	if s.WriteElHeap != 1 {
		t.Errorf("captured write not elided: %d", s.WriteElHeap)
	}
	if rt.Space().Load(g) != 1 || rt.Space().Load(g+1) != 2 {
		t.Error("writes lost")
	}
	rt.Validate()
}

func TestSkipSharedStillFullySynchronized(t *testing.T) {
	cfg := RuntimeAll()
	cfg.SkipSharedChecks = true
	rt := newRT(cfg)
	a := rt.Space().AllocGlobal(1)
	const threads, incs = 6, 300
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.Thread(id)
			for j := 0; j < incs; j++ {
				th.Atomic(func(tx *Tx) {
					tx.Store(a, tx.Load(a, AccShared)+1, AccShared)
				})
			}
		}(i)
	}
	wg.Wait()
	if got := rt.Space().Load(a); got != threads*incs {
		t.Errorf("counter = %d, want %d", got, threads*incs)
	}
	rt.Validate()
}

func TestProvSharedNeverstaticallyElided(t *testing.T) {
	if StaticElide(ProvShared) {
		t.Fatal("ProvShared must keep its barrier")
	}
	// Even under the Compiler configuration, shared accesses keep full
	// barriers: two threads verify isolation.
	rt := newRT(Compiler())
	a := rt.Space().AllocGlobal(1)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.Thread(id)
			for j := 0; j < 200; j++ {
				th.Atomic(func(tx *Tx) {
					tx.Store(a, tx.Load(a, AccShared)+1, AccShared)
				})
			}
		}(i)
	}
	wg.Wait()
	if got := rt.Space().Load(a); got != 800 {
		t.Errorf("counter = %d, want 800", got)
	}
}

// TestSkipSharedCheckOverheadDirection: with the extension on, a
// shared-only transaction performs no capture-log probes at all, which
// the elision/probe counters make visible.
func TestSkipSharedNoProbesOnSharedOnlyTx(t *testing.T) {
	cfg := RuntimeAll()
	cfg.SkipSharedChecks = true
	rt := newRT(cfg)
	th := rt.Thread(0)
	g := rt.Space().AllocGlobal(8)
	th.Atomic(func(tx *Tx) {
		for i := 0; i < 8; i++ {
			v := tx.Load(g+addrOf(i), AccShared)
			tx.Store(g+addrOf(i), v+1, AccShared)
		}
	})
	s := rt.Stats()
	if s.ReadSkipShared != 8 || s.WriteSkipShared != 8 {
		t.Errorf("skips r=%d w=%d, want 8/8", s.ReadSkipShared, s.WriteSkipShared)
	}
	if s.ReadElided()+s.WriteElided() != 0 {
		t.Error("nothing should be elided in a shared-only transaction")
	}
}

func addrOf(i int) mem.Addr { return mem.Addr(i) }
