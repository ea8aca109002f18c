package stm

import (
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/mem"
)

// rmCfg returns the canonical read-mostly perf profile: the full
// runtime-capture base with the ReadMostly knob on, so the upgrade
// target is the rw-stack-heap-tree specialization.
func rmCfg() OptConfig {
	cfg := RuntimeAll(capture.KindTree).Perf()
	cfg.ReadMostly = true
	return cfg
}

// TestReadMostlyZeroWriteActivity is the zero-setup acceptance pin: a
// phase that never stores to shared memory must leave the write-side
// machinery untouched — no write-log or undo-log capacity ever
// allocated, zero upgrades — and, because read-mostly full reads
// validate against the snapshot instead of logging, no read-set
// capacity either.
func TestReadMostlyZeroWriteActivity(t *testing.T) {
	for _, perf := range []bool{false, true} {
		cfg := rmCfg()
		cfg.PerfMode = perf
		rt := newRT(cfg)
		th := rt.Thread(0)
		g := rt.Space().AllocGlobal(8)
		for i := 0; i < 8; i++ {
			rt.Space().Store(g+mem.Addr(i), uint64(i*3))
		}
		var sum uint64
		for iter := 0; iter < 50; iter++ {
			th.Atomic(func(tx *Tx) {
				// Captured stores (stack accumulator) must not upgrade.
				f := tx.StackAlloc(1)
				tx.Store(f, 0, AccStack)
				for i := 0; i < 8; i++ {
					tx.Store(f, tx.Load(f, AccStack)+tx.Load(g+mem.Addr(i), AccShared), AccStack)
				}
				sum = tx.Load(f, AccStack)
			})
		}
		if sum != 0+3+6+9+12+15+18+21 {
			t.Errorf("perf=%v: sum = %d", perf, sum)
		}
		s := rt.Stats()
		if s.Upgrades != 0 {
			t.Errorf("perf=%v: %d upgrades on a never-storing phase", perf, s.Upgrades)
		}
		if s.Commits != 50 {
			t.Errorf("perf=%v: commits = %d, want 50", perf, s.Commits)
		}
		tx := th.tx
		if cap(tx.writes) != 0 || cap(tx.undo) != 0 {
			t.Errorf("perf=%v: write machinery allocated: writes cap %d, undo cap %d",
				perf, cap(tx.writes), cap(tx.undo))
		}
		if cap(tx.readset) != 0 {
			t.Errorf("perf=%v: read set allocated (cap %d) on unlogged loads", perf, cap(tx.readset))
		}
		rt.Validate()
	}
}

// TestReadMostlyUpgrade covers the in-flight upgrade: the first shared
// store swaps the transaction onto the full engine mid-flight, the
// store and everything after it behaves exactly like the full engine,
// and finish() restores the read-mostly pair so the next transaction
// starts fresh.
func TestReadMostlyUpgrade(t *testing.T) {
	for _, perf := range []bool{false, true} {
		cfg := rmCfg()
		cfg.PerfMode = perf
		rt := newRT(cfg)
		th := rt.Thread(0)
		g := rt.Space().AllocGlobal(2)
		rt.Space().Store(g, 40)
		th.Atomic(func(tx *Tx) {
			v := tx.Load(g, AccShared)
			tx.Store(g, v+2, AccShared) // first shared store: upgrade here
			if !tx.upgraded {
				t.Error("tx not marked upgraded after shared store")
			}
			// Read-after-write and a second store run on the full engine.
			tx.Store(g+1, tx.Load(g, AccShared), AccShared)
		})
		if got := rt.Space().Load(g); got != 42 {
			t.Errorf("perf=%v: g = %d, want 42", perf, got)
		}
		if got := rt.Space().Load(g + 1); got != 42 {
			t.Errorf("perf=%v: g+1 = %d, want 42", perf, got)
		}
		if s := rt.Stats(); s.Upgrades != 1 {
			t.Errorf("perf=%v: upgrades = %d, want 1", perf, s.Upgrades)
		}
		// The barrier pair is restored: a following read-only transaction
		// reports no further upgrades.
		th.Atomic(func(tx *Tx) {
			if tx.upgraded {
				t.Error("upgraded flag leaked into next transaction")
			}
			_ = tx.Load(g, AccShared)
		})
		if s := rt.Stats(); s.Upgrades != 1 {
			t.Errorf("perf=%v: upgrades after read-only tx = %d, want 1", perf, s.Upgrades)
		}
		rt.Validate()
	}
}

// TestReadMostlyUpgradeRestart pins the restart half of the upgrade
// contract: when a writer commits between a read-mostly attempt's
// snapshot and its first shared store, the unlogged reads cannot be
// revalidated, so the in-flight path must refuse and the retry must
// run the full engine from its first access (upNext).
func TestReadMostlyUpgradeRestart(t *testing.T) {
	rt := newRT(rmCfg())
	th := rt.Thread(0)
	wr := rt.Thread(1)
	g := rt.Space().AllocGlobal(2)
	attempts := 0
	th.Atomic(func(tx *Tx) {
		attempts++
		v := tx.Load(g, AccShared)
		if attempts == 1 {
			// A concurrent writer commits after the snapshot.
			wr.Atomic(func(wtx *Tx) {
				wtx.Store(g+1, 7, AccShared)
			})
			if tx.upgraded {
				t.Error("attempt 1 started upgraded")
			}
		} else if !tx.upgraded {
			t.Error("retry did not start on the full engine")
		}
		tx.Store(g, v+1, AccShared)
	})
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	if got := rt.Space().Load(g); got != 1 {
		t.Errorf("g = %d, want 1", got)
	}
	// Two upgrade events: the interfering writer's (in-flight, it saw a
	// clean clock) and the refused one that forced the restart. The
	// retried attempt runs the full engine from the start, so it does
	// not count a third.
	if s := rt.Stats(); s.Upgrades != 2 {
		t.Errorf("upgrades = %d, want 2", s.Upgrades)
	}
	rt.Validate()
}

// TestReadMostlyUpgradeNestedAbort drives the upgrade inside a nested
// transaction that partially aborts: the inner stores roll back, the
// upgrade sticks for the rest of the outer transaction (the engine swap
// is per-attempt, not per-nesting-level), and the outer commit is
// intact.
func TestReadMostlyUpgradeNestedAbort(t *testing.T) {
	rt := newRT(rmCfg())
	th := rt.Thread(0)
	g := rt.Space().AllocGlobal(2)
	rt.Space().Store(g, 7)
	th.Atomic(func(tx *Tx) {
		_ = tx.Load(g, AccShared)
		th.Atomic(func(tx2 *Tx) {
			tx2.Store(g+1, 99, AccShared) // upgrade fires inside the nested tx
			tx2.UserAbort()
		})
		if !tx.upgraded {
			t.Error("upgrade did not survive the nested abort")
		}
		tx.Store(g, tx.Load(g, AccShared)+1, AccShared)
	})
	if got := rt.Space().Load(g); got != 8 {
		t.Errorf("g = %d, want 8", got)
	}
	if got := rt.Space().Load(g + 1); got != 0 {
		t.Errorf("aborted nested store leaked: g+1 = %d", got)
	}
	rt.Validate()
}

// TestReadMostlyPrivateStoreStaysUnlogged pins that a store to an
// annotated thread-private block takes no orec and so must not upgrade:
// the attempt stays unlogged, commits without a clock bump and with an
// empty write log, and — the block holds live-in data — a user abort
// still restores the word from the undo log.
func TestReadMostlyPrivateStoreStaysUnlogged(t *testing.T) {
	for _, perf := range []bool{false, true} {
		cfg := rmCfg()
		cfg.PerfMode = perf
		cfg.Annotations = true
		rt := newRT(cfg)
		th := rt.Thread(0)
		g := rt.Space().AllocGlobal(1)
		rt.Space().Store(g, 5)
		p := th.Alloc(2)
		th.Store(p, 11)
		th.AddPrivateBlock(p, 2)
		clock := rt.clock.Load()
		committed := th.Atomic(func(tx *Tx) {
			tx.Store(p, tx.Load(g, AccShared)+tx.Load(p, AccAuto), AccAuto)
			if !tx.unlogged || tx.upgraded {
				t.Errorf("perf=%v: private store left unlogged mode (unlogged=%v upgraded=%v)", perf, tx.unlogged, tx.upgraded)
			}
			if len(tx.writes) != 0 || len(tx.readset) != 0 {
				t.Errorf("perf=%v: %d orecs locked, %d reads logged; want 0, 0", perf, len(tx.writes), len(tx.readset))
			}
			if len(tx.undo) != 1 {
				t.Errorf("perf=%v: undo entries = %d, want 1 (private data is live-in)", perf, len(tx.undo))
			}
		})
		if !committed || rt.Space().Load(p) != 16 {
			t.Errorf("perf=%v: committed=%v, p = %d, want 16", perf, committed, rt.Space().Load(p))
		}
		if th.Atomic(func(tx *Tx) {
			tx.Store(p, 99, AccAuto)
			tx.UserAbort()
		}) {
			t.Errorf("perf=%v: user abort reported a commit", perf)
		}
		if got := rt.Space().Load(p); got != 16 {
			t.Errorf("perf=%v: user abort left p = %d, want 16 restored", perf, got)
		}
		if s := rt.Stats(); s.Upgrades != 0 || s.Commits != 1 || s.UserAborts != 1 {
			t.Errorf("perf=%v: upgrades=%d commits=%d userAborts=%d, want 0, 1, 1", perf, s.Upgrades, s.Commits, s.UserAborts)
		}
		if got := rt.clock.Load(); got != clock {
			t.Errorf("perf=%v: clock moved %d -> %d on orec-free transactions", perf, clock, got)
		}
		rt.Validate()
	}
}

// TestReadMostlyMatchesGeneric runs the full engine scenario (every
// barrier mechanism, including shared stores that force upgrades) under
// the read-mostly family and under the forced-generic reference, and
// demands identical memory effects. Statistics legitimately differ
// (the upgrade counter, and the post-upgrade chain attribution), so
// only values are compared.
func TestReadMostlyMatchesGeneric(t *testing.T) {
	for _, perf := range []bool{false, true} {
		cfg := rmCfg()
		cfg.PerfMode = perf
		gen := cfg
		gen.ForceGeneric = true
		wantVals, _ := engineScenario(t, gen)
		gotVals, gotStats := engineScenario(t, cfg)
		for i, v := range gotVals {
			if v != wantVals[i] {
				t.Errorf("perf=%v: word %d = %d, want %d (generic)", perf, i, v, wantVals[i])
			}
		}
		if gotStats.Upgrades == 0 {
			t.Errorf("perf=%v: scenario has shared stores but no upgrades recorded", perf)
		}
	}
}

// TestReadMostlyUpgradeStress is the -race pin for the upgrade path:
// threads run a mix of read-only scans and upgrading increments against
// the same counter line, so retried attempts repeatedly re-enter the
// read-mostly chain and re-upgrade. The final sum must be exact and no
// orec may stay locked.
func TestReadMostlyUpgradeStress(t *testing.T) {
	const threads, perThread = 4, 1500
	rt := newRT(rmCfg())
	g := rt.Space().AllocGlobal(2)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			th := rt.Thread(tid)
			for i := 0; i < perThread; i++ {
				if i%3 == 0 {
					// Read-only: stays on the read-mostly chain end to end.
					th.Atomic(func(tx *Tx) {
						_ = tx.Load(g, AccShared) + tx.Load(g+1, AccShared)
					})
				} else {
					// Upgrading increment: contended, so aborted attempts
					// restart on the read-mostly pair and upgrade again.
					th.Atomic(func(tx *Tx) {
						tx.Store(g, tx.Load(g, AccShared)+1, AccShared)
					})
				}
			}
		}(tid)
	}
	wg.Wait()
	want := uint64(threads * perThread * 2 / 3)
	if got := rt.Space().Load(g); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	rt.Validate()
}
