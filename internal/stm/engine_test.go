package stm

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/capture"
	"repro/internal/mem"
)

// TestEngineSelection pins the profile → engine compilation: every
// instrumented profile uses the counting chain, perf profiles compile
// to their specialization, and the force knob always yields generic.
func TestEngineSelection(t *testing.T) {
	cases := []struct {
		name string
		cfg  OptConfig
		want string
	}{
		{"baseline", Baseline(), "counting"},
		{"counting", CountingConfig(), "counting"},
		{"runtime-tree", RuntimeAll(capture.KindTree), "counting"},
		{"baseline-perf", Baseline().Perf(), "perf-noinstr"},
		{"runtime-tree-perf", RuntimeAll(capture.KindTree).Perf(), "perf-rw-stack-heap-tree"},
		{"runtime-array-perf", RuntimeAll(capture.KindArray).Perf(), "perf-rw-stack-heap-array"},
		{"runtime-filter-perf", RuntimeAll(capture.KindFilter).Perf(), "perf-rw-stack-heap-filter"},
		{"write-only-perf", RuntimeWrite(capture.KindTree).Perf(), "perf-w-stack-heap-tree"},
		{"heap-write-perf", RuntimeHeapWrite(capture.KindArray).Perf(), "perf-w-heap-array"},
		{"compiler-perf", Compiler().Perf(), "perf-compiler"},
	}
	for _, c := range cases {
		if got := newEngine(c.cfg).name; got != c.want {
			t.Errorf("%s: engine %q, want %q", c.name, got, c.want)
		}
	}

	forced := RuntimeAll(capture.KindTree).Perf()
	forced.ForceGeneric = true
	if got := newEngine(forced).name; got != "generic" {
		t.Errorf("forced: engine %q, want generic", got)
	}

	// Debug oracles under PerfMode fall back to the reference chain.
	dbg := CountingConfig().Perf()
	if got := newEngine(dbg).name; got != "generic" {
		t.Errorf("perf+counting: engine %q, want generic", got)
	}

	// Combinations compose prologues onto the specialized core.
	combo := RuntimeAll(capture.KindTree).Perf()
	combo.Compiler = true
	combo.SkipSharedChecks = true
	if got := newEngine(combo).name; got != "perf-compiler+rw-stack-heap-tree+skipshared" {
		t.Errorf("combo: engine %q", got)
	}

	// Annotations have no flat specialization: stats-free chain.
	ann := RuntimeAll(capture.KindTree).Perf()
	ann.Annotations = true
	if got := newEngine(ann).name; got != "perf-mixed" {
		t.Errorf("annotations: engine %q, want perf-mixed", got)
	}

	// The read-mostly family: one name per statistics mode, the upgrade
	// target compiled from the same profile with the knob off, and the
	// debug oracles (forced generic, counting) winning over the knob.
	rm := RuntimeAll(capture.KindTree).Perf()
	rm.ReadMostly = true
	e := newEngine(rm)
	if e.name != "perf-readmostly" {
		t.Errorf("readmostly-perf: engine %q, want perf-readmostly", e.name)
	}
	if e.up == nil || e.up.name != "perf-rw-stack-heap-tree" {
		t.Errorf("readmostly-perf upgrade target = %+v", e.up)
	}
	rmStats := rm
	rmStats.PerfMode = false
	e = newEngine(rmStats)
	if e.name != "readmostly" {
		t.Errorf("readmostly: engine %q, want readmostly", e.name)
	}
	if e.up == nil || e.up.name != "counting" {
		t.Errorf("readmostly upgrade target = %+v", e.up)
	}
	rmForced := rm
	rmForced.ForceGeneric = true
	if got := newEngine(rmForced).name; got != "generic" {
		t.Errorf("readmostly+forced: engine %q, want generic", got)
	}
	rmCount := rmStats
	rmCount.Counting = true
	if got := newEngine(rmCount).name; got != "counting" {
		t.Errorf("readmostly+counting: engine %q, want counting", got)
	}
}

// engineScenario drives one deterministic transaction mix touching
// every barrier mechanism: shared reads/writes, fresh heap blocks,
// stack frames, read-after-write, a user abort, and a nested partial
// abort. It returns the final global values.
func engineScenario(t *testing.T, cfg OptConfig) ([]uint64, Stats) {
	t.Helper()
	rt := newRT(cfg)
	th := rt.Thread(0)
	g := rt.Space().AllocGlobal(4)
	th.Atomic(func(tx *Tx) {
		p := tx.Alloc(4)
		tx.Store(p, 5, AccFresh)
		tx.Store(p+1, tx.Load(p, AccFresh)+1, AccLocal)
		f := tx.StackAlloc(2)
		tx.Store(f, 9, AccStack)
		tx.Store(g, tx.Load(f, AccStack), AccShared)
		tx.Store(g+1, tx.Load(p+1, AccAuto), AccAuto)
	})
	th.Atomic(func(tx *Tx) {
		tx.Store(g+2, 77, AccShared)
		tx.UserAbort()
	})
	th.Atomic(func(tx *Tx) {
		tx.Store(g+2, 100, AccShared)
		th.Atomic(func(tx2 *Tx) {
			tx2.Store(g+3, 200, AccShared)
			tx2.UserAbort()
		})
	})
	rt.Validate()
	out := make([]uint64, 4)
	for i := range out {
		out[i] = rt.Space().Load(g + mem.Addr(i))
	}
	return out, rt.Stats()
}

// TestEnginesAgreeWithGeneric runs the scenario under every profile
// twice — specialized engine vs forced generic — and demands identical
// memory effects and identical statistics.
func TestEnginesAgreeWithGeneric(t *testing.T) {
	profiles := allConfigs()
	for _, base := range allConfigs() {
		profiles = append(profiles, base.Perf())
	}
	skipCfg := RuntimeAll(capture.KindTree)
	skipCfg.SkipSharedChecks = true
	skipCfg.Name = "runtime+skipshared"
	profiles = append(profiles, skipCfg, skipCfg.Perf())
	for _, cfg := range profiles {
		name := cfg.Name
		if cfg.PerfMode {
			name += "-perf"
		}
		t.Run(name, func(t *testing.T) {
			gen := cfg
			gen.ForceGeneric = true
			wantVals, wantStats := engineScenario(t, gen)
			gotVals, gotStats := engineScenario(t, cfg)
			if !reflect.DeepEqual(gotVals, wantVals) {
				t.Errorf("engine %q final state %v, want %v (generic)",
					newEngine(cfg).name, gotVals, wantVals)
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Errorf("engine %q stats %+v, want %+v (generic)",
					newEngine(cfg).name, gotStats, wantStats)
			}
		})
	}
}

// TestPerfEngineKeepsNoBarrierStats is the acceptance check that the
// specialized engines carry zero statistics code: after a transaction
// full of every access flavor, only the lifecycle counters (commits,
// allocator traffic) may be nonzero.
func TestPerfEngineKeepsNoBarrierStats(t *testing.T) {
	rm := RuntimeAll(capture.KindTree).Perf()
	rm.ReadMostly = true
	rm.Name = "readmostly"
	for _, cfg := range []OptConfig{
		Baseline().Perf(),
		RuntimeAll(capture.KindTree).Perf(),
		Compiler().Perf(),
		rm,
	} {
		_, s := engineScenario(t, cfg)
		barrier := s
		barrier.Commits, barrier.Aborts, barrier.UserAborts = 0, 0, 0
		barrier.Upgrades = 0 // lifecycle accounting, like the outcomes
		barrier.TxAllocs, barrier.TxFrees = 0, 0
		if barrier != (Stats{}) {
			t.Errorf("%s: perf engine recorded barrier stats: %+v", cfg.Name, barrier)
		}
		if s.Commits == 0 {
			t.Errorf("%s: commit counter lost", cfg.Name)
		}
	}
}

// TestForcedGenericEndToEnd reruns the concurrent bank invariant under
// the forced generic engine, so the reference chain stays exercised in
// the correctness matrix even though no profile selects it by default.
func TestForcedGenericEndToEnd(t *testing.T) {
	cfg := RuntimeAll(capture.KindTree).Perf()
	cfg.ForceGeneric = true
	rt := newRT(cfg)
	if rt.Engine() != "generic" {
		t.Fatalf("engine %q", rt.Engine())
	}
	a := rt.Space().AllocGlobal(1)
	th := rt.Thread(0)
	for i := 0; i < 100; i++ {
		th.Atomic(func(tx *Tx) {
			tx.Store(a, tx.Load(a, AccShared)+1, AccShared)
		})
	}
	if got := rt.Space().Load(a); got != 100 {
		t.Errorf("counter = %d, want 100", got)
	}
	rt.Validate()
}

// TestPrevOrecWordLookup covers the orec-index lookup that replaced the
// linear write-set scan: reads validated against self-locked orecs must
// see the pre-acquisition version, and partial aborts must drop the
// released entries from the lookup.
func TestPrevOrecWordLookup(t *testing.T) {
	rt := newRT(Baseline())
	th := rt.Thread(0)
	g := rt.Space().AllocGlobal(mem.LineWords * 4)
	th.Atomic(func(tx *Tx) {
		for i := 0; i < 4; i++ {
			a := g + mem.Addr(i*mem.LineWords)
			pre := rt.orecs[rt.orecIndex(a)].Load()
			tx.Store(a, uint64(i), AccShared)
			if got := tx.prevOrecWord(rt.orecIndex(a)); got != pre {
				t.Errorf("prevOrecWord(orec of word %d) = %d, want %d", i, got, pre)
			}
		}
		if got := tx.prevOrecWord(^uint64(0) >> 1); got != ^uint64(0) {
			t.Errorf("unlocked orec lookup = %d, want ^0", got)
		}
		// A nested transaction locks a fresh line, then partially
		// aborts: its entry must leave the lookup, the outer ones stay.
		inner := g + mem.Addr(3*mem.LineWords)
		_ = inner
		th.Atomic(func(tx2 *Tx) {
			tx2.Store(g+mem.Addr(2*mem.LineWords)+1, 9, AccShared) // same line as word 2: already locked
			tx2.UserAbort()
		})
		if got := tx.prevOrecWord(rt.orecIndex(g)); got == ^uint64(0) {
			t.Error("outer lock entry lost after nested abort")
		}
	})
	// After commit the lookup is cleared.
	if len(th.tx.lockedPrev) != 0 {
		t.Errorf("lockedPrev not cleared: %d entries", len(th.tx.lockedPrev))
	}
	rt.Validate()
}

// TestLimboSnapshotsOnlyOddThreads locks in the enqueueLimbo slimming:
// a quiescent system produces an empty snapshot (self excepted), so
// batches drain on the very next commit.
func TestLimboSnapshotsOnlyOddThreads(t *testing.T) {
	rt := newRT(Baseline())
	th := rt.Thread(0)
	rt.Thread(1) // exists but never transacts: must not be snapshotted
	p := th.Alloc(4)
	th.Atomic(func(tx *Tx) { tx.Free(p) })
	if n := len(th.limbo); n != 0 {
		// The freeing thread itself is odd at enqueue time but has
		// quiesced by drain time, so the batch must already be gone.
		t.Fatalf("limbo batches = %d, want 0", n)
	}
	if th.alloc.Live() != 0 {
		t.Errorf("live = %d, want 0", th.alloc.Live())
	}
	// The snapshot in a fresh batch records only the enqueuing thread.
	q := th.Alloc(4)
	var ids []int32
	th.Atomic(func(tx *Tx) {
		tx.Free(q)
		// Peek after commitTop would be too late; instead enqueue
		// directly to observe the snapshot shape.
	})
	th.enqueueLimbo([]mem.Addr{})
	ids = th.limbo[len(th.limbo)-1].ids
	if len(ids) != 0 {
		t.Errorf("quiescent snapshot ids = %v, want empty", ids)
	}
	th.drainLimbo()
}

// TestAllocationLogPreciseAtTheEngine pins "precise" where elision is
// decided, not only inside internal/capture: through random Tx.Alloc /
// Tx.Free / nested commit / nested abort sequences, the probe the
// engine consults answers true for every payload word of every live
// block of the transaction and false for each block's header word
// (addr-1), the word past its end (addr+size), and every word of a
// block already freed or rolled back. The blocks span one word to many
// granules, so ranges share granules, straddle them, and grow the table.
func TestAllocationLogPreciseAtTheEngine(t *testing.T) {
	counting := RuntimeAll(capture.KindTree)
	counting.Counting = true
	rm := RuntimeAll(capture.KindTree).Perf()
	rm.ReadMostly = true
	for _, c := range []struct {
		cfg    OptConfig
		engine string
	}{
		{RuntimeAll(capture.KindTree).Perf(), "perf-rw-stack-heap-tree"},
		{counting, "counting"},
		{rm, "perf-readmostly"},
	} {
		t.Run(c.engine, func(t *testing.T) {
			rt := newRT(c.cfg)
			th := rt.Thread(0)
			rng := rand.New(rand.NewSource(13))
			for round := 0; round < 12; round++ {
				th.Atomic(func(tx *Tx) {
					if tx.eng.name != c.engine {
						t.Fatalf("running on engine %q, want %q", tx.eng.name, c.engine)
					}
					allocLogChurn(t, tx, rng, 48)
					// Hand everything back so the rounds share the heap.
					for _, a := range tx.allocs {
						if !a.dead && !slices.Contains(tx.frees, a.addr) {
							tx.Free(a.addr)
						}
					}
					checkAllocLogPrecise(t, tx, nil)
				})
				if tx := &th.tx; tx.allocLive != 0 || tx.alog.Len() != 0 || (tx.clog != nil && tx.clog.Len() != 0) {
					t.Fatalf("round %d: allocation log not empty after commit", round)
				}
			}
			rt.Validate()
		})
	}
}

// allocLogChurn performs steps random allocation-log operations at the
// transaction's current depth, checking the probe after each.
func allocLogChurn(t *testing.T, tx *Tx, rng *rand.Rand, steps int) {
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(10); {
		case op < 5:
			n := 1 + rng.Intn(3)
			if rng.Intn(6) == 0 {
				n = 1 + rng.Intn(400)
			}
			tx.Alloc(n)
		case op < 7 && len(tx.allocs) > 0:
			// Immediate when the block is this depth's, deferred to
			// commit (so still captured) when it is an outer depth's.
			if a := tx.allocs[rng.Intn(len(tx.allocs))]; !a.dead && !slices.Contains(tx.frees, a.addr) {
				tx.Free(a.addr)
			}
		case op < 9 && tx.Depth() < 4:
			abort := rng.Intn(2) == 0
			base := len(tx.allocs)
			var undone []allocRec // the scope's blocks, gone after a partial abort
			tx.th.Atomic(func(tx *Tx) {
				allocLogChurn(t, tx, rng, steps/4)
				if abort {
					undone = slices.Clone(tx.allocs[base:])
					tx.UserAbort()
				}
			})
			for i := range undone {
				undone[i].dead = true
			}
			checkAllocLogPrecise(t, tx, undone)
		}
		checkAllocLogPrecise(t, tx, nil)
	}
}

// checkAllocLogPrecise checks the probe against tx.allocs, plus gone:
// records of blocks no longer in tx.allocs that must not be captured.
func checkAllocLogPrecise(t *testing.T, tx *Tx, gone []allocRec) {
	t.Helper()
	captured := func(a mem.Addr) bool {
		got := tx.alogContains(a)
		if tx.clog != nil && tx.clog.Contains(a, 1) != got {
			t.Fatalf("word %d: allocation log says %v, counting log disagrees", a, got)
		}
		return got
	}
	live := map[mem.Addr]bool{}
	for _, a := range tx.allocs {
		if a.dead {
			continue
		}
		for w := a.addr; w < a.addr+mem.Addr(a.size); w++ {
			live[w] = true
			if !captured(w) {
				t.Fatalf("word %d of live block [%d,+%d) not captured", w, a.addr, a.size)
			}
		}
	}
	for _, a := range append(gone, tx.allocs...) {
		// Headers and the word after a block are never payload; a dead
		// block's words are captured only where a later block reuses them.
		words := []mem.Addr{a.addr - 1, a.addr + mem.Addr(a.size)}
		if a.dead {
			for w := a.addr; w < a.addr+mem.Addr(a.size); w++ {
				words = append(words, w)
			}
		}
		for _, w := range words {
			if !live[w] && captured(w) {
				t.Fatalf("word %d by block [%d,+%d) (dead=%v) captured but not allocated", w, a.addr, a.size, a.dead)
			}
		}
	}
}
