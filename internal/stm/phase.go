package stm

// This file is the phase layer of the barrier engine. A Runtime may
// declare named workload phases (OptConfig.Phases), each carrying its
// own optimization configuration; every phase is compiled to its own
// barrier engine up front, and threads switch between the compiled
// engines at transaction boundaries via EnterPhase hints. The paper
// compiles ONE barrier mix per program, but a workload like tmmsg runs
// operations from opposite capture regimes in one process — batch
// publishes want the capture-checking fast paths, cursor read-modify-
// writes want the definitely-shared bypass — so a single engine always
// leaves one regime on the wrong fast path. Phase switches never take
// effect inside a running transaction: a hint given mid-transaction is
// deferred until the top-level transaction (including all its retries)
// has ended, so one attempt never mixes two engines' barrier decisions.

// compiledPhase is one entry of a Runtime's engine table: a declared
// phase kind, the full configuration its engine compiles from, and the
// compiled engine itself. Index 0 of the table is always the default
// phase (kind ""), compiled from the base configuration.
type compiledPhase struct {
	kind string
	cfg  OptConfig
	eng  *engine
}

// compilePhases builds the engine table for cfg: the base configuration
// at index 0, then one entry per declared phase, in declaration order.
func compilePhases(cfg OptConfig) ([]compiledPhase, map[string]int) {
	base := cfg
	base.Phases = nil
	validatePhaseCfg("", base)
	phases := []compiledPhase{{kind: "", cfg: base, eng: newEngine(base)}}
	idx := make(map[string]int, len(cfg.Phases))
	for _, pc := range cfg.Phases {
		if pc.Kind == "" {
			panic("stm: phase kind must be non-empty")
		}
		if _, dup := idx[pc.Kind]; dup {
			panic("stm: duplicate phase kind " + pc.Kind)
		}
		c := pc.Cfg
		c.Phases = nil // phases do not nest
		// The engine-force knob is a Runtime-level differential-testing
		// switch: it must pin every phase's engine, or a "forced
		// generic" reference run would still execute specialized code
		// after the first phase switch.
		c.ForceGeneric = c.ForceGeneric || base.ForceGeneric
		validatePhaseCfg(pc.Kind, c)
		idx[pc.Kind] = len(phases)
		phases = append(phases, compiledPhase{kind: pc.Kind, cfg: c, eng: newEngine(c)})
	}
	return phases, idx
}

func validatePhaseCfg(kind string, c OptConfig) {
	if c.VerifyElision && !c.Counting {
		if kind == "" {
			panic("stm: VerifyElision requires Counting")
		}
		panic("stm: phase " + kind + ": VerifyElision requires Counting")
	}
}

// PhaseStats is one row of the per-phase statistics breakdown: the
// declared kind ("" for the default phase), the engine the phase
// compiled to, and the summed counters of every transaction threads ran
// on it.
type PhaseStats struct {
	Kind   string
	Engine string
	Stats  Stats
}

// PhaseKinds returns the declared phase kinds in declaration order; the
// implicit default phase is not listed.
func (rt *Runtime) PhaseKinds() []string {
	kinds := make([]string, 0, len(rt.phases)-1)
	for _, p := range rt.phases[1:] {
		kinds = append(kinds, p.kind)
	}
	return kinds
}

// EngineFor names the barrier engine compiled for the given phase kind;
// "" names the default phase. An undeclared kind reports the default
// engine, mirroring EnterPhase's hint semantics.
func (rt *Runtime) EngineFor(kind string) string {
	return rt.phases[rt.phaseIdx[kind]].eng.name
}

// PhaseStats sums every thread's counters by phase. Index 0 is the
// default phase; declared phases follow in declaration order. Like
// Stats, it must be read after worker threads have joined.
func (rt *Runtime) PhaseStats() []PhaseStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]PhaseStats, len(rt.phases))
	for i, p := range rt.phases {
		out[i] = PhaseStats{Kind: p.kind, Engine: p.eng.name}
	}
	for _, th := range rt.threads {
		for i := range th.phaseStats {
			out[i].Stats.Add(&th.phaseStats[i])
		}
	}
	return out
}

// EnterPhase hints that this thread's upcoming transactions belong to
// the given declared phase kind, switching the thread onto that phase's
// compiled barrier engine. The hint is free to give unconditionally: a
// kind the Runtime did not declare selects the default phase, so
// workloads tag their operations once and profiles opt in with
// OptConfig.Phases. Called inside a transaction, the switch is deferred
// until the enclosing top-level transaction (and any retries of it) has
// ended — engines never change mid-transaction.
func (th *Thread) EnterPhase(kind string) {
	idx := th.rt.phaseIdx[kind]
	if th.tx.active {
		th.pendingPhase = idx
		return
	}
	th.setPhase(idx)
}

// Phase returns the kind of the phase the thread currently executes in
// ("" for the default phase). A deferred switch is not yet visible.
func (th *Thread) Phase() string { return th.rt.phases[th.phase].kind }

// setPhase applies a phase switch: the statistics accumulator and the
// transaction descriptor's compiled engine move to the new phase. It
// must only run between transactions.
func (th *Thread) setPhase(idx int) {
	th.pendingPhase = -1
	if th.phase == idx {
		return
	}
	th.phase = idx
	th.stats = &th.phaseStats[idx]
	th.tx.applyPhase(idx)
}
