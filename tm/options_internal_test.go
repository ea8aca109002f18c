package tm

// White-box tests: the functional options and preset profiles must
// build exactly the stm.OptConfig values the engine's own constructors
// produce, so results stay comparable with the paper's configuration
// names.

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/stm"
)

func buildCfg(t *testing.T, opts ...Option) stm.OptConfig {
	t.Helper()
	_, cfg := build(opts)
	return cfg
}

func TestPresetProfilesMatchEngineConstructors(t *testing.T) {
	cases := []struct {
		profile Profile
		want    stm.OptConfig
	}{
		{Baseline(), stm.Baseline()},
		{Counting(), stm.CountingConfig()},
		{RuntimeAll(LogTree), stm.RuntimeAll()},
		{RuntimeWrite(LogTree), stm.RuntimeWrite()},
		{RuntimeHeapWrite(LogTree), stm.RuntimeHeapWrite()},
		{CompilerElision(), stm.Compiler()},
		{RuntimeAll(LogTree).Perf(), stm.RuntimeAll().Perf()},
	}
	for _, c := range cases {
		got := buildCfg(t, c.profile.Options()...)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("profile %q built %+v, want %+v", c.profile.Name(), got, c.want)
		}
	}
}

func TestOptionFieldMapping(t *testing.T) {
	cfg := buildCfg(t,
		WithName("x"),
		WithRuntimeCapture(Checks{Stack: true}, Checks{Heap: true}),
		WithAnnotations(),
		WithCounting(),
		WithPerfMode(),
		WithSkipSharedChecks(),
		WithoutWAWFilter(),
	)
	want := stm.OptConfig{
		Name:             "x",
		Read:             stm.BarrierOpt{Stack: true},
		Write:            stm.BarrierOpt{Heap: true},
		Annotations:      true,
		Counting:         true,
		PerfMode:         true,
		SkipSharedChecks: true,
		NoWAWFilter:      true,
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("built %+v, want %+v", cfg, want)
	}
	if cfg := buildCfg(t, WithCompilerElision()); !cfg.Compiler {
		t.Error("WithCompilerElision did not set Compiler")
	}
	// VerifyElision needs the precise log; the option must imply
	// Counting or the engine panics at first transaction.
	cfg = buildCfg(t, WithVerifyElision())
	if !cfg.VerifyElision || !cfg.Counting {
		t.Errorf("WithVerifyElision built %+v, want VerifyElision+Counting", cfg)
	}
	if cfg := buildCfg(t, WithEngine(EngineGeneric)); !cfg.ForceGeneric {
		t.Error("WithEngine(EngineGeneric) did not set ForceGeneric")
	}
	if cfg := buildCfg(t, WithEngine(EngineGeneric), WithEngine(EngineAuto)); cfg.ForceGeneric {
		t.Error("WithEngine(EngineAuto) did not clear ForceGeneric")
	}
}

// TestWithPhasesBuildsFragmentsOverFinalBase: phase fragments overlay
// the FINAL base configuration — options appearing after WithPhases in
// the list still reach the phase configs — and fragments cannot smuggle
// in nested phase declarations or memory changes.
func TestWithPhasesBuildsFragmentsOverFinalBase(t *testing.T) {
	_, cfg := build([]Option{
		WithPhases(
			PhaseProfile(PhasePublish, WithRuntimeCapture(StackAndHeap, StackAndHeap)),
			PhaseProfile(PhaseCursor, WithSkipSharedChecks(),
				WithPhases(PhaseProfile("sneaky")),     // ignored: phases do not nest
				WithMemory(MemConfig{GlobalWords: 1})), // ignored: memory is per-Runtime
		),
		WithPerfMode(), // after WithPhases: must still reach the fragments
	})
	if len(cfg.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(cfg.Phases))
	}
	pub, cur := cfg.Phases[0], cfg.Phases[1]
	if pub.Kind != PhasePublish || cur.Kind != PhaseCursor {
		t.Errorf("kinds = %q,%q", pub.Kind, cur.Kind)
	}
	if !pub.Cfg.PerfMode || !cur.Cfg.PerfMode {
		t.Error("option after WithPhases did not reach the fragments")
	}
	if pub.Cfg.Read != (stm.BarrierOpt{Stack: true, Heap: true}) {
		t.Errorf("publish fragment read checks = %+v", pub.Cfg.Read)
	}
	if !cur.Cfg.SkipSharedChecks || cur.Cfg.Read.Stack {
		t.Errorf("cursor fragment = %+v", cur.Cfg)
	}
	if len(cur.Cfg.Phases) != 0 {
		t.Error("nested phase declaration leaked into a fragment")
	}
	// The base config itself must not inherit fragment options.
	if cfg.SkipSharedChecks || cfg.Read.Stack {
		t.Errorf("fragment options leaked into the base: %+v", cfg)
	}
}

// TestPhasedOpenEndToEnd drives the public surface: declared kinds,
// per-phase engine names, hint fallbacks, and per-phase stats rows.
func TestPhasedOpenEndToEnd(t *testing.T) {
	rt := Open(
		WithPerfMode(),
		WithPhases(
			PhaseProfile(PhasePublish, WithRuntimeCapture(StackAndHeap, StackAndHeap)),
			PhaseProfile(PhaseCursor, WithSkipSharedChecks()),
		),
		WithMemory(MemConfig{GlobalWords: 64, HeapWords: 1 << 16, StackWords: 1 << 8, MaxThreads: 2}),
	)
	if got := rt.Engine(); got != "perf-noinstr+phases" {
		t.Errorf("Engine() = %q", got)
	}
	if got := rt.EngineFor(PhasePublish); got != "perf-rw-stack-heap-tree" {
		t.Errorf("EngineFor(publish) = %q", got)
	}
	if got := rt.EngineFor(PhaseCursor); got != "perf-skipshared" {
		t.Errorf("EngineFor(cursor) = %q", got)
	}
	if ph := rt.Phases(); len(ph) != 2 || ph[0] != PhasePublish || ph[1] != PhaseCursor {
		t.Errorf("Phases() = %v", ph)
	}
	th := rt.Thread(0)
	cell := rt.AllocGlobal(1).Word(0)
	th.Atomic(func(tx *Tx) { cell.Add(tx, 1) }) // default phase
	th.EnterPhase(PhasePublish)
	if th.Phase() != PhasePublish {
		t.Errorf("Phase() = %q", th.Phase())
	}
	th.Atomic(func(tx *Tx) { cell.Add(tx, 1) })
	th.EnterPhase("undeclared-kind")
	if th.Phase() != "" {
		t.Errorf("undeclared kind selected phase %q, want default", th.Phase())
	}
	th.Atomic(func(tx *Tx) { cell.Add(tx, 1) })
	if got := cell.Peek(rt); got != 3 {
		t.Errorf("cell = %d, want 3", got)
	}
	ps := rt.Snapshot().Phases
	if len(ps) != 3 {
		t.Fatalf("PhaseStats rows = %d, want 3", len(ps))
	}
	if ps[0].Stats.Commits != 2 || ps[1].Stats.Commits != 1 || ps[2].Stats.Commits != 0 {
		t.Errorf("per-phase commits = %d,%d,%d, want 2,1,0",
			ps[0].Stats.Commits, ps[1].Stats.Commits, ps[2].Stats.Commits)
	}
	rt.Validate()
}

func TestMemoryAndDefaults(t *testing.T) {
	mc, cfg := build(nil)
	if mc != mem.DefaultConfig() {
		t.Errorf("default memory = %+v", mc)
	}
	if cfg.Name != "custom" {
		t.Errorf("default name = %q", cfg.Name)
	}
	custom := MemConfig{GlobalWords: 8, HeapWords: 16, StackWords: 4, MaxThreads: 2}
	mc, _ = build([]Option{WithMemory(custom)})
	if mc != custom {
		t.Errorf("WithMemory = %+v, want %+v", mc, custom)
	}
}

func TestProfileWithDoesNotAliasBase(t *testing.T) {
	base := NewProfile("base", WithCounting())
	a := base.With(WithPerfMode())
	b := base.With(WithoutWAWFilter())
	acfg := buildCfg(t, a.Options()...)
	bcfg := buildCfg(t, b.Options()...)
	if acfg.NoWAWFilter || !acfg.PerfMode {
		t.Errorf("profile a contaminated: %+v", acfg)
	}
	if bcfg.PerfMode || !bcfg.NoWAWFilter {
		t.Errorf("profile b contaminated: %+v", bcfg)
	}
	if a.Name() != "base" || b.Named("renamed").Name() != "renamed" {
		t.Error("profile naming broken")
	}
}
