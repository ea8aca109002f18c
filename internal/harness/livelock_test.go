package harness

import (
	"testing"

	"repro/tm"
)

// TestCMLivelockProfiles is the livelock regression at the tm layer:
// two threads writing the same two words in opposite orders, across the
// profile grid the conflict path actually varies over — including the
// read-mostly engine, whose fallback (attempt 3 re-runs on the full
// engine) composes with the backoff retry loop. The run must terminate
// with every increment applied and a bounded abort bill; an unbounded
// ratio means the backoff failed to separate symmetric writers.
func TestCMLivelockProfiles(t *testing.T) {
	const iters = 400
	profiles := []tm.Profile{
		tm.Baseline(),
		tm.RuntimeAll(tm.LogTree),
		tm.RuntimeAll(tm.LogTree).With(tm.WithReadMostly()).Named("runtime+readmostly"),
	}
	for _, p := range profiles {
		t.Run(p.Name(), func(t *testing.T) {
			rt := tm.Open(append(p.Options(), tm.WithMemory(tm.MemConfig{
				GlobalWords: 1 << 8, HeapWords: 1 << 14, StackWords: 1 << 10, MaxThreads: 4,
			}))...)
			g := rt.AllocGlobal(2)
			rt.Parallel(2, func(th *tm.Thread, tid, _ int) {
				for i := 0; i < iters; i++ {
					th.Atomic(func(tx *tm.Tx) {
						// Opposite acquisition orders: the classic
						// symmetric-writer livelock shape.
						a, b := 0, 1
						if tid == 1 {
							a, b = 1, 0
						}
						g.Word(a).Add(tx, 1)
						g.Word(b).Add(tx, 1)
					})
				}
			})
			var sum uint64
			th := rt.Thread(0)
			th.Atomic(func(tx *tm.Tx) {
				sum = g.Word(0).Load(tx) + g.Word(1).Load(tx)
			})
			if want := uint64(2 * 2 * iters); sum != want {
				t.Errorf("counter sum = %d, want %d", sum, want)
			}
			s := rt.Snapshot().Stats
			if s.Aborts > 50*s.Commits {
				t.Errorf("abort ratio %.1f: backoff failed to break the livelock", s.AbortRatio())
			}
			rt.Validate()
		})
	}
}
