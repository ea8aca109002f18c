package stm

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mem"
)

// TestEngineSelection pins the profile → engine compilation: every
// instrumented profile uses the counting chain, perf profiles compile
// to their specialization, and the force knob always yields generic.
func TestEngineSelection(t *testing.T) {
	skipShared := Baseline()
	skipShared.SkipSharedChecks = true
	cases := []struct {
		name string
		cfg  OptConfig
		want string
	}{
		{"baseline", Baseline(), "counting"},
		{"counting", CountingConfig(), "counting"},
		{"runtime-tree", RuntimeAll(), "counting"}, // harness.PhaseRegimeSpecs' publish fragment
		{"skipshared", skipShared, "counting"},     // its cursor fragment (scan is rmStats below)
		{"baseline-perf", Baseline().Perf(), "perf-noinstr"},
		{"runtime-tree-perf", RuntimeAll().Perf(), "perf-rw-stack-heap-tree"},
		{"write-only-perf", RuntimeWrite().Perf(), "perf-w-stack-heap-tree"},
		{"heap-write-perf", RuntimeHeapWrite().Perf(), "perf-w-heap-tree"},
		{"compiler-perf", Compiler().Perf(), "perf-compiler"},
	}
	// mirrorsGeneric reports whether cfg, as it stands and with the
	// force knob set, compiles to the very functions genericEngine()
	// returns. While it holds for every PerfMode-off configuration, a
	// differential of an instrumented run against its forced-generic
	// twin compares a function pair with itself, which is why
	// internal/harness's grid runs no such cell. The day this fails —
	// someone gave "counting" its own chain again — those mirror cells
	// must come back.
	mirrorsGeneric := func(cfg OptConfig) bool {
		forced := cfg
		forced.ForceGeneric = true
		return samePair(newEngine(cfg), genericEngine()) && samePair(newEngine(forced), genericEngine())
	}
	for _, c := range cases {
		if got := newEngine(c.cfg).name; got != c.want {
			t.Errorf("%s: engine %q, want %q", c.name, got, c.want)
		}
		if !c.cfg.PerfMode && !mirrorsGeneric(c.cfg) {
			t.Errorf("%s: an instrumented engine no longer runs the generic chain's functions", c.name)
		}
	}

	forced := RuntimeAll().Perf()
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
	combo := RuntimeAll().Perf()
	combo.Compiler = true
	combo.SkipSharedChecks = true
	if got := newEngine(combo).name; got != "perf-compiler+rw-stack-heap-tree+skipshared" {
		t.Errorf("combo: engine %q", got)
	}

	// Annotations have no flat specialization: the reference chain,
	// which keeps no barrier statistics under PerfMode.
	ann := RuntimeAll().Perf()
	ann.Annotations = true
	if got := newEngine(ann).name; got != "generic" {
		t.Errorf("annotations: engine %q, want generic", got)
	}

	// Read-mostly: one name per statistics mode, the function pair of the
	// same profile compiled with the knob off run in read-mostly mode, and
	// the debug oracles (forced generic, counting) winning over the knob.
	full := RuntimeAll().Perf()
	rm := full
	rm.ReadMostly = true
	e := newEngine(rm)
	if e.name != "perf-readmostly" {
		t.Errorf("readmostly-perf: engine %q, want perf-readmostly", e.name)
	}
	if off := newEngine(full); !e.rm || off.rm || off.name != "perf-rw-stack-heap-tree" || !samePair(e, off) {
		t.Errorf("readmostly-perf = %+v, want the pair of %+v in read-mostly mode", e, off)
	}
	rmStats := rm
	rmStats.PerfMode = false
	e = newEngine(rmStats)
	if e.name != "readmostly" {
		t.Errorf("readmostly: engine %q, want readmostly", e.name)
	}
	full.PerfMode = false
	if off := newEngine(full); !e.rm || off.rm || off.name != "counting" || !samePair(e, off) || !mirrorsGeneric(rmStats) {
		t.Errorf("readmostly = %+v, want the pair of %+v (the generic chain's) in read-mostly mode", e, off)
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

// samePair reports whether two engines run the same Load/Store code.
// Func values only compare to nil, so compare code pointers; closures
// built from one literal share theirs, which is the identity wanted.
func samePair(a, b *engine) bool {
	return reflect.ValueOf(a.load).Pointer() == reflect.ValueOf(b.load).Pointer() &&
		reflect.ValueOf(a.store).Pointer() == reflect.ValueOf(b.store).Pointer()
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
	skipCfg := RuntimeAll()
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

// shapeStep is what one scripted access left observable: the value a
// load returned (0 for stores) and the log lengths and read-mostly state
// after it.
type shapeStep struct {
	val                uint64
	reads, writes, und int
	upgraded           bool
	upgrades           uint64
}

// shapeTrace runs the shape differential's script on cfg: every address
// class (transaction stack, fresh heap block, block freed in the
// transaction, annotated private block, shared global) is loaded,
// stored and loaded again under every Prov, once at top level and once
// inside a nested transaction (where captured stores undo-log). Loads
// come first so a read-mostly attempt is observed unlogged before its
// first shared store upgrades it. A Prov that lies about its address is
// fine here: one thread, and both engines must take the same wrong arm.
func shapeTrace(cfg OptConfig) (trace []shapeStep, final []uint64) {
	rt := New(mem.Config{GlobalWords: 64, HeapWords: 1 << 14, StackWords: 1 << 8, MaxThreads: 1}, cfg)
	th := rt.Thread(0)
	g := rt.Space().AllocGlobal(2)
	rt.Space().Store(g, 3)
	priv := th.Alloc(2)
	th.Store(priv, 4)
	th.AddPrivateBlock(priv, 2)
	provs := []Prov{ProvUnknown, ProvFresh, ProvLocal, ProvStack, ProvShared}
	next := uint64(100)
	script := func(tx *Tx) {
		freed := tx.Alloc(2)
		addrs := []mem.Addr{tx.StackAlloc(2), tx.Alloc(2), freed, priv, g}
		tx.Free(freed)
		observe := func(val uint64) {
			trace = append(trace, shapeStep{val, len(tx.readset), len(tx.writes), len(tx.undo),
				tx.upgraded, th.stats.Upgrades})
		}
		for _, store := range []bool{false, true, false} {
			for _, a := range addrs {
				for _, pv := range provs {
					if store {
						next++
						tx.Store(a, next, Acc{Prov: pv})
						observe(0)
					} else {
						observe(tx.Load(a, Acc{Prov: pv}))
					}
				}
			}
		}
	}
	th.Atomic(script)
	th.Atomic(func(tx *Tx) { th.Atomic(script) })
	rt.Validate()
	return trace, []uint64{rt.Space().Load(g), rt.Space().Load(priv), rt.clock.Load()}
}

// TestEveryShapeAgreesWithGeneric is the exhaustive differential the
// named profiles cannot give: they never compile perfLoadStack, the
// heap-only loads, perfStoreStack or most prologue combinations, and
// "counting" is the reference chain itself. Every perf profile shape —
// 2⁶ check mixes × annotations × read-mostly, annotated ones
// compiling to the reference chain under PerfMode — must match
// the forced interpreting chain access by access, not just in its final
// memory: same values, same log growth, same upgrade point.
func TestEveryShapeAgreesWithGeneric(t *testing.T) {
	names := map[string]bool{}
	for bits := 0; bits < 1<<8; bits++ {
		on := func(i int) bool { return bits>>i&1 == 1 }
		cfg := OptConfig{
			PerfMode: true,
			Compiler: on(0), SkipSharedChecks: on(1),
			Read:        BarrierOpt{Stack: on(2), Heap: on(3)},
			Write:       BarrierOpt{Stack: on(4), Heap: on(5)},
			Annotations: on(6), ReadMostly: on(7),
		}
		e := newEngine(cfg)
		switch {
		case cfg.Annotations && !samePair(e, genericEngine()):
			// No flat path wraps the private-log probe.
			t.Fatalf("%+v compiled to %q, want the reference chain's pair", cfg, e.name)
		case !cfg.Annotations && (e.name == "generic" || e.name == "counting"):
			t.Fatalf("%+v compiled to %q, want a perf engine", cfg, e.name)
		}
		names[e.name] = true
		gen := cfg
		gen.ForceGeneric = true
		want, wantFinal := shapeTrace(gen)
		got, gotFinal := shapeTrace(cfg)
		if len(got) != len(want) {
			t.Fatalf("%s %+v: %d steps, want %d", e.name, cfg, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s %+v: step %d = %+v, want %+v (generic)", e.name, cfg, i, got[i], want[i])
			}
		}
		if !reflect.DeepEqual(gotFinal, wantFinal) {
			t.Fatalf("%s %+v: final g/priv/clock %v, want %v (generic)", e.name, cfg, gotFinal, wantFinal)
		}
	}
	for _, flat := range []string{"perf-r-stack", "perf-r-heap-tree", "perf-w-stack", "perf-readmostly"} {
		if !names[flat] {
			t.Errorf("shape sweep never compiled %q", flat)
		}
	}
}

// TestPerfEngineKeepsNoBarrierStats is the acceptance check that the
// specialized engines carry zero statistics code, and that the
// reference chain PerfMode with Annotations runs on records none:
// after a transaction full of every access flavor, only the lifecycle
// counters (commits, allocator traffic) may be nonzero.
func TestPerfEngineKeepsNoBarrierStats(t *testing.T) {
	rm := RuntimeAll().Perf()
	rm.ReadMostly = true
	rm.Name = "readmostly"
	ann := RuntimeAll().Perf()
	ann.Annotations = true
	ann.Name = "annotations"
	for _, cfg := range []OptConfig{
		Baseline().Perf(),
		RuntimeAll().Perf(),
		Compiler().Perf(),
		rm,
		ann,
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
	cfg := RuntimeAll().Perf()
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

// TestPrevOrecWordLookup covers the write-set index in the lock word:
// validate reads the word a self-held lock replaced through the index
// the lock word carries; an unlocked or foreign-locked word is not
// ours; a partial abort releases the scope's locks while the outer
// ones keep indexing their entries, and the next lock takes the
// released index.
func TestPrevOrecWordLookup(t *testing.T) {
	rt := newRT(Baseline())
	th := rt.Thread(0)
	g := lineAligned(rt, mem.LineWords*5)
	line := func(i int) mem.Addr { return g + mem.Addr(i*mem.LineWords) }
	word := func(i int) uint64 { return rt.orecs[rt.orecIndex(line(i))].Load() }
	th.Atomic(func(tx *Tx) {
		pre := make([]uint64, 5)
		for i := range pre {
			pre[i] = word(i)
		}
		for i := 0; i < 3; i++ {
			tx.Store(line(i), uint64(i), AccShared)
			if w := word(i); orecWriteIdx(w) != i || tx.prevOrecWord(w) != pre[i] {
				t.Errorf("line %d: lock word indexes entry %d, prev %d; want %d, %d",
					i, orecWriteIdx(w), tx.prevOrecWord(w), i, pre[i])
			}
		}
		if got := tx.prevOrecWord(word(4)); got != ^uint64(0) {
			t.Errorf("unlocked orec lookup = %d, want ^0", got)
		}
		if got := tx.prevOrecWord(orecLockWord(th.id+1, 0)); got != ^uint64(0) {
			t.Errorf("foreign lock lookup = %d, want ^0", got)
		}
		// A nested transaction stores to a line it already holds (no
		// new entry) and locks a fresh one, then partially aborts.
		th.Atomic(func(tx2 *Tx) {
			tx2.Store(line(2)+1, 9, AccShared)
			tx2.Store(line(3), 9, AccShared)
			if n := len(tx2.writes); n != 4 {
				t.Errorf("nested write set holds %d entries, want 4", n)
			}
			tx2.UserAbort()
		})
		if n := len(tx.writes); n != 3 {
			t.Errorf("write set holds %d entries after the nested abort, want 3", n)
		}
		if w := word(3); orecLocked(w) {
			t.Errorf("orec of the aborted scope's line still locked: %#x", w)
		}
		for i := 0; i < 3; i++ {
			if got := tx.prevOrecWord(word(i)); got != pre[i] {
				t.Errorf("outer lock on line %d lost after nested abort: prev %d, want %d", i, got, pre[i])
			}
		}
		tx.Store(line(4), 1, AccShared)
		if w := word(4); orecWriteIdx(w) != 3 || tx.prevOrecWord(w) != pre[4] {
			t.Errorf("lock after the abort indexes entry %d, prev %d; want 3, %d",
				orecWriteIdx(w), tx.prevOrecWord(w), pre[4])
		}
	})
	if n := len(th.tx.writes); n != 0 {
		t.Errorf("write set not cleared at commit: %d entries", n)
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
// Tx.Free / nested commit / nested abort sequences, each nursery run is
// tiled exactly by blocks of the transaction, every other block sits in
// the allocation log exactly while it is live, and the capture test
// answers true for every payload word of every live block, and false
// for each block's header word (addr-1), the word past its end
// (addr+size) and every word of a block freed or rolled back, except
// where a run still holds the freed block or its header. The blocks
// span one word to many granules, so table ranges share granules,
// straddle them, and grow the table.
func TestAllocationLogPreciseAtTheEngine(t *testing.T) {
	counting := RuntimeAll()
	counting.Counting = true
	rm := RuntimeAll().Perf()
	rm.ReadMostly = true
	for _, c := range []struct {
		cfg    OptConfig
		engine string
	}{
		{RuntimeAll().Perf(), "perf-rw-stack-heap-tree"},
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
				if tx := &th.tx; tx.nursery[0].span|tx.nursery[1].span != 0 || tx.allocZones|tx.hitSpan != 0 || tx.alog.Len() != 0 || (tx.clog != nil && tx.clog.Len() != 0) {
					t.Fatalf("round %d: nursery runs, allocation log, its zones or its last hit not empty after commit", round)
				}
			}
			recycledFarFromBump(t, th)
			rt.Validate()
		})
	}
}

// recycledFarFromBump: Alloc pops a size class's free list before it
// bumps, so one transaction can hold recycled blocks far from its fresh
// ones. The first two places start the two runs; the blocks that fit
// neither go to the allocation log. Blocks the transaction did not
// allocate lie between the logged ones: the probe must reject them, and
// the zone guard must reject those more than a zone from either logged
// block without a probe.
func recycledFarFromBump(t *testing.T, th *Thread) {
	t.Helper()
	old4, spacer, old8 := th.Alloc(4), th.Alloc(4), th.Alloc(8)
	var between []mem.Addr
	for range 9 { // 9 × 1025 words: past the private bump span (8192)
		between = append(between, th.Alloc(1024))
	}
	old16 := th.Alloc(16)
	spacers := []mem.Addr{spacer, th.Alloc(16)} // keep the old blocks apart

	th.Free(old4)
	th.Free(old8)
	th.Free(old16)
	th.Atomic(func(tx *Tx) {
		fresh := tx.Alloc(700) // a class the churn above never uses: bumped
		for _, old := range []mem.Addr{old4, old8, old16} {
			if got := tx.Alloc(th.alloc.BlockSize(old)); got != old {
				t.Fatalf("Alloc = %d, want the recycled block %d", got, old)
			}
		}
		if fresh < old4+9*1025 {
			t.Fatalf("fresh block %d only %d words above the recycled one", fresh, fresh-old4)
		}
		if tx.nursery[0].lo != fresh || tx.nursery[1].lo != old4 || tx.alog.Len() != 2 {
			t.Fatalf("runs %+v and %d logged blocks, want runs at %d and %d and two logged", tx.nursery, tx.alog.Len(), fresh, old4)
		}
		checkAllocLogPrecise(t, tx, nil)
		for i, b := range between {
			if tx.alogContains(b) || tx.alogContains(b+1023) {
				t.Fatalf("block %d between the logged ones captured", b)
			}
			// Each block is 1025 words with its header, so all but the
			// first and last are more than a zone from old8 and old16,
			// and the 18 zones the blocks span cannot share a bit.
			for _, w := range []mem.Addr{b, b + 512, b + 1023} {
				if i > 0 && i < len(between)-1 && tx.inAllocZone(w) {
					t.Fatalf("word %d of block %d between the logged ones passes the zone guard", w, i)
				}
			}
		}
		for _, b := range spacers {
			if tx.alogContains(b) {
				t.Fatalf("block %d next to a recycled one captured", b)
			}
		}
	})
	for _, b := range append(between, spacers...) {
		th.Free(b)
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
			// Immediate when the block was allocated since the innermost
			// savepoint, deferred to commit (so still captured) when an
			// enclosing or committed sibling scope allocated it.
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

// checkAllocLogPrecise checks the capture test against tx.allocs, plus
// gone: records of blocks no longer in tx.allocs, rolled back, that
// must not be captured.
func checkAllocLogPrecise(t *testing.T, tx *Tx, gone []allocRec) {
	t.Helper()
	byAddr := map[mem.Addr]allocRec{}
	logged := 0
	for _, a := range tx.allocs {
		byAddr[a.addr] = a
		end := a.addr + mem.Addr(a.size) - 1
		switch {
		case tx.inNursery(a.addr):
			if !tx.inNursery(end) || tx.alog.Contains(a.addr, 1) {
				t.Fatalf("block [%d,+%d) (dead=%v) half in the runs %+v, or in both runs and allocation log", a.addr, a.size, a.dead, tx.nursery)
			}
		case !a.dead:
			logged++
			if !tx.alog.Contains(a.addr, a.size) {
				t.Fatalf("live block [%d,+%d) not in the allocation log", a.addr, a.size)
			}
			for w := a.addr; w <= end; w++ {
				if !tx.inAllocZone(w) {
					t.Fatalf("word %d of live block [%d,+%d) outside the zones %#x", w, a.addr, a.size, tx.allocZones)
				}
			}
		}
	}
	if tx.alog.Len() != logged {
		t.Fatalf("allocation log holds %d blocks, want the %d live ones outside the runs", tx.alog.Len(), logged)
	}
	// A run is its first block's payload, then header and payload of
	// each block after it, all of them this transaction's.
	maybe := map[mem.Addr]bool{} // run words not in a live block
	for _, r := range tx.nursery {
		at, end := r.lo, r.lo+mem.Addr(r.span)
		for first := true; at < end; first = false {
			if !first {
				maybe[at] = true // the header
				at++
			}
			a, ok := byAddr[at]
			if !ok || at+mem.Addr(a.size) > end {
				t.Fatalf("run [%d,%d) holds word %d, which starts no block it took", r.lo, end, at)
			}
			if a.dead {
				for w := at; w < at+mem.Addr(a.size); w++ {
					maybe[w] = true
				}
			}
			at += mem.Addr(a.size)
		}
	}
	captured := func(a mem.Addr) bool {
		got := tx.alogContains(a)
		if tx.clog != nil && tx.clog.Contains(a, 1) != got && !maybe[a] {
			t.Fatalf("word %d: capture test says %v, counting log disagrees", a, got)
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
		// block's words are captured only where a later block reuses them
		// or a run still holds them.
		words := []mem.Addr{a.addr - 1, a.addr + mem.Addr(a.size)}
		if a.dead {
			for w := a.addr; w < a.addr+mem.Addr(a.size); w++ {
				words = append(words, w)
			}
		}
		for _, w := range words {
			if !live[w] && !maybe[w] && captured(w) {
				t.Fatalf("word %d by block [%d,+%d) (dead=%v) captured but not allocated", w, a.addr, a.size, a.dead)
			}
		}
	}
}
