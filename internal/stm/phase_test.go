package stm

import (
	"sync"
	"testing"
)

// phasedBaseline returns the canonical two-phase configuration the
// tests drive: a counting baseline whose "publish" phase compiles the
// capture-checking engine and whose "cursor" phase compiles the
// definitely-shared bypass.
func phasedBaseline() OptConfig {
	cursor := Baseline()
	cursor.SkipSharedChecks = true
	cfg := Baseline()
	cfg.Phases = []PhaseConfig{
		{Kind: "publish", Cfg: RuntimeAll()},
		{Kind: "cursor", Cfg: cursor},
	}
	return cfg
}

// TestPhaseCompilation pins the engine table: one engine per declared
// phase, kind lookup, the "+phases" marker on the summary name, and
// hint semantics for undeclared kinds.
func TestPhaseCompilation(t *testing.T) {
	rt := newRT(phasedBaseline())
	if got := rt.Engine(); got != "counting+phases" {
		t.Errorf("Engine() = %q, want counting+phases", got)
	}
	if got := rt.EngineFor(""); got != "counting" {
		t.Errorf("EngineFor(\"\") = %q, want counting", got)
	}
	// Instrumented profiles keep the counting chain regardless of the
	// phase's barrier mix; the perf build compiles the specializations.
	if got := rt.EngineFor("publish"); got != "counting" {
		t.Errorf("EngineFor(publish) = %q", got)
	}
	if kinds := rt.PhaseKinds(); len(kinds) != 2 || kinds[0] != "publish" || kinds[1] != "cursor" {
		t.Errorf("PhaseKinds = %v", kinds)
	}
	if got := rt.EngineFor("no-such-phase"); got != "counting" {
		t.Errorf("EngineFor(unknown) = %q, want the default engine", got)
	}

	perf := phasedBaseline().Perf()
	perf.Phases[0].Cfg = perf.Phases[0].Cfg.Perf()
	perf.Phases[1].Cfg = perf.Phases[1].Cfg.Perf()
	prt := newRT(perf)
	if got := prt.EngineFor("publish"); got != "perf-rw-stack-heap-tree" {
		t.Errorf("perf EngineFor(publish) = %q", got)
	}
	if got := prt.EngineFor("cursor"); got != "perf-skipshared" {
		t.Errorf("perf EngineFor(cursor) = %q", got)
	}
	// PhaseStats has one row per kind, in declaration order, naming the
	// engine EngineFor reports for that kind.
	rows := prt.PhaseStats()
	if len(rows) != 3 {
		t.Fatalf("PhaseStats rows = %d, want 3", len(rows))
	}
	for i, kind := range []string{"", "publish", "cursor"} {
		if rows[i].Kind != kind || rows[i].Engine != prt.EngineFor(kind) {
			t.Errorf("PhaseStats row %d = %q/%q, want %q/%q", i, rows[i].Kind, rows[i].Engine, kind, prt.EngineFor(kind))
		}
	}

	// The engine-force knob pins every phase, not just the default.
	forced := perf
	forced.ForceGeneric = true
	frt := newRT(forced)
	for _, kind := range []string{"", "publish", "cursor"} {
		if got := frt.EngineFor(kind); got != "generic" {
			t.Errorf("forced EngineFor(%q) = %q, want generic", kind, got)
		}
	}
}

func TestPhaseDeclarationValidation(t *testing.T) {
	expectPanic := func(name string, cfg OptConfig) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: New did not panic", name)
			}
		}()
		newRT(cfg)
	}
	dup := Baseline()
	dup.Phases = []PhaseConfig{{Kind: "a", Cfg: Baseline()}, {Kind: "a", Cfg: Baseline()}}
	expectPanic("duplicate kind", dup)
	empty := Baseline()
	empty.Phases = []PhaseConfig{{Kind: "", Cfg: Baseline()}}
	expectPanic("empty kind", empty)
	badVerify := Baseline()
	bad := Baseline()
	bad.VerifyElision = true // without Counting
	badVerify.Phases = []PhaseConfig{{Kind: "v", Cfg: bad}}
	expectPanic("verify without counting", badVerify)
}

// TestEnterPhaseBoundaries pins the switching rule: outside a
// transaction the switch is immediate; inside one it is deferred until
// the top-level transaction has ended, and the engine never changes
// mid-transaction.
func TestEnterPhaseBoundaries(t *testing.T) {
	rt := newRT(phasedBaseline())
	th := rt.Thread(0)
	if th.Phase() != "" {
		t.Fatalf("initial phase %q", th.Phase())
	}
	th.EnterPhase("publish")
	if th.Phase() != "publish" {
		t.Errorf("immediate switch failed: phase %q", th.Phase())
	}

	g := rt.Space().AllocGlobal(1)
	th.Atomic(func(tx *Tx) {
		th.EnterPhase("cursor")
		if th.Phase() != "publish" {
			t.Errorf("phase switched mid-transaction to %q", th.Phase())
		}
		if th.phase != 1 || th.pendingPhase != 2 {
			t.Errorf("phase/pending = %d/%d, want 1/2", th.phase, th.pendingPhase)
		}
		tx.Store(g, 7, AccShared)
	})
	if th.Phase() != "cursor" {
		t.Errorf("deferred switch not applied after commit: phase %q", th.Phase())
	}

	// A switch hinted inside an aborted transaction still lands.
	th.EnterPhase("publish")
	th.Atomic(func(tx *Tx) {
		th.EnterPhase("cursor")
		tx.UserAbort()
	})
	if th.Phase() != "cursor" {
		t.Errorf("deferred switch lost on user abort: phase %q", th.Phase())
	}

	// Undeclared kinds fall back to the default phase.
	th.EnterPhase("nope")
	if th.Phase() != "" {
		t.Errorf("unknown kind left phase %q, want default", th.Phase())
	}
	rt.Validate()
}

// TestPhaseStatsAttribution runs a known transaction mix in each phase
// and demands the per-phase rows account for exactly their own
// transactions, with Stats() the sum of all rows and ResetStats
// clearing every row.
func TestPhaseStatsAttribution(t *testing.T) {
	rt := newRT(phasedBaseline())
	th := rt.Thread(0)
	g := rt.Space().AllocGlobal(2)

	for i := 0; i < 3; i++ { // default phase
		th.Atomic(func(tx *Tx) { tx.Store(g, uint64(i), AccShared) })
	}
	th.EnterPhase("publish")
	for i := 0; i < 5; i++ {
		th.Atomic(func(tx *Tx) {
			p := tx.Alloc(2)
			tx.Store(p, uint64(i), AccFresh) // runtime-captured in this phase
			tx.Free(p)
		})
	}
	th.EnterPhase("cursor")
	for i := 0; i < 2; i++ {
		th.Atomic(func(tx *Tx) { tx.Store(g+1, uint64(i), AccShared) })
	}

	ps := rt.PhaseStats()
	if len(ps) != 3 {
		t.Fatalf("PhaseStats rows = %d, want 3", len(ps))
	}
	if ps[0].Kind != "" || ps[1].Kind != "publish" || ps[2].Kind != "cursor" {
		t.Fatalf("row kinds = %q,%q,%q", ps[0].Kind, ps[1].Kind, ps[2].Kind)
	}
	if ps[0].Stats.Commits != 3 || ps[1].Stats.Commits != 5 || ps[2].Stats.Commits != 2 {
		t.Errorf("per-phase commits = %d,%d,%d, want 3,5,2",
			ps[0].Stats.Commits, ps[1].Stats.Commits, ps[2].Stats.Commits)
	}
	if ps[1].Stats.WriteElHeap == 0 {
		t.Error("publish phase elided no captured-heap writes")
	}
	if ps[0].Stats.WriteElHeap != 0 || ps[2].Stats.WriteElHeap != 0 {
		t.Error("non-capture phases recorded heap elisions")
	}
	if ps[2].Stats.WriteSkipShared == 0 {
		t.Error("cursor phase bypassed no definitely-shared checks")
	}
	var sum Stats
	for i := range ps {
		sum.Add(&ps[i].Stats)
	}
	if total := rt.Stats(); total != sum {
		t.Errorf("Stats() %+v != sum of phase rows %+v", total, sum)
	}

	rt.ResetStats()
	for _, row := range rt.PhaseStats() {
		if row.Stats != (Stats{}) {
			t.Errorf("ResetStats left phase %q counters: %+v", row.Kind, row.Stats)
		}
	}
}

// TestPhaseSwitchStress is the -race pin for the switch-only-between-
// transactions rule: every thread flips its own phase continuously —
// before, between, and inside transactions — while all threads hammer
// shared counters. The final sums must be exact and the per-phase
// commit rows must account for every transaction.
func TestPhaseSwitchStress(t *testing.T) {
	const threads, perThread = 4, 3000
	rt := newRT(phasedBaseline())
	g := rt.Space().AllocGlobal(2)
	kinds := []string{"", "publish", "cursor", "unknown-kind"}
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			th := rt.Thread(tid)
			for i := 0; i < perThread; i++ {
				if i%3 == 0 {
					th.EnterPhase(kinds[(tid+i)%len(kinds)])
				}
				th.Atomic(func(tx *Tx) {
					if i%5 == 0 {
						th.EnterPhase(kinds[(tid+i+1)%len(kinds)]) // deferred
					}
					tx.Store(g, tx.Load(g, AccShared)+1, AccShared)
					p := tx.Alloc(1)
					tx.Store(p, uint64(i), AccFresh)
					tx.Free(p)
					tx.Store(g+1, tx.Load(g+1, AccShared)+2, AccShared)
				})
			}
		}(tid)
	}
	wg.Wait()
	if got := rt.Space().Load(g); got != threads*perThread {
		t.Errorf("counter = %d, want %d", got, threads*perThread)
	}
	if got := rt.Space().Load(g + 1); got != 2*threads*perThread {
		t.Errorf("second counter = %d, want %d", got, 2*threads*perThread)
	}
	var commits uint64
	for _, row := range rt.PhaseStats() {
		commits += row.Stats.Commits
	}
	if commits != threads*perThread {
		t.Errorf("phase rows account for %d commits, want %d", commits, threads*perThread)
	}
	rt.Validate()
}
