package stm

import (
	"sync"
	"testing"

	"repro/internal/capture"
)

// TestBackoffCountsWaits: the backoff policy accounts its spin episodes
// in Stats.Waits and Stats.WaitNs.
func TestBackoffCountsWaits(t *testing.T) {
	rt := newRT(Baseline())
	th := rt.Thread(0)
	th.backoffSpin(3)
	th.backoffSpin(6) // > 4: includes the Gosched path
	if th.stats.Waits != 2 {
		t.Errorf("Waits = %d, want 2", th.stats.Waits)
	}
	if th.stats.WaitNs == 0 {
		t.Error("WaitNs = 0, want > 0")
	}
	if th.backoffSpin(0); th.stats.Waits != 2 {
		t.Error("attempt 0 must impose no wait")
	}
}

// TestCMStress hammers one shared counter from four threads under the
// backoff policy: the final value must be exact and no orec may leak.
func TestCMStress(t *testing.T) {
	t.Run("backoff", func(t *testing.T) {
		const threads, perThread = 4, 1500
		rt := newRT(RuntimeAll(capture.KindTree).Perf())
		g := rt.Space().AllocGlobal(1)
		var wg sync.WaitGroup
		for tid := 0; tid < threads; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				th := rt.Thread(tid)
				for i := 0; i < perThread; i++ {
					th.Atomic(func(tx *Tx) {
						tx.Store(g, tx.Load(g, AccShared)+1, AccShared)
					})
				}
			}(tid)
		}
		wg.Wait()
		if got := rt.Space().Load(g); got != threads*perThread {
			t.Errorf("counter = %d, want %d", got, threads*perThread)
		}
		rt.Validate()
	})
}

// TestCMLivelockSymmetricWriters is the livelock regression pin: writer
// pairs whose footprints always collide (two globals written in
// opposite orders) must all complete within a bounded attempt budget —
// the backoff must force them apart.
func TestCMLivelockSymmetricWriters(t *testing.T) {
	const threads, perThread = 2, 800
	rt := newRT(Baseline().Perf())
	g := rt.Space().AllocGlobal(2)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			th := rt.Thread(tid)
			a, b := g, g+1
			if tid%2 == 1 {
				a, b = b, a // opposite acquisition order: symmetric conflicts
			}
			for i := 0; i < perThread; i++ {
				th.Atomic(func(tx *Tx) {
					tx.Store(a, tx.Load(a, AccShared)+1, AccShared)
					tx.Store(b, tx.Load(b, AccShared)+1, AccShared)
				})
			}
		}(tid)
	}
	wg.Wait()
	if got := rt.Space().Load(g); got != threads*perThread {
		t.Errorf("counter = %d, want %d", got, threads*perThread)
	}
	// The budget: 50 aborts per commit is an order of magnitude above
	// anything observed and an order below livelock.
	s := rt.Stats()
	if ratio := s.AbortRatio(); ratio > 50 {
		t.Errorf("abort ratio %.1f exceeds the livelock budget", ratio)
	}
	rt.Validate()
}
