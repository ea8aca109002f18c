package stm

// This file closes the loop the phase layer left open: instead of a
// human declaring which engine each workload phase should run on
// (OptConfig.Phases), an adaptive Runtime *measures* each declared kind
// and re-selects its engine online. Every adaptive kind gets four
// compiled variants in the engine table:
//
//	probe       the instrumented counting engine (capture checks on,
//	            Counting classification on) — the sampling window
//	capture     the capture-checking fast path (stack+heap checks,
//	            precise tree log), the paper's publish regime
//	skipshared  the definitely-shared bypass prologue, the paper's
//	            cursor regime
//	readmostly  the capture variant in read-mostly mode (zero
//	            write-path setup, in-flight upgrade on first shared
//	            store), the scan regime
//
// The fast variants are compiled from exactly the same fragments the
// canonical manual declaration (harness.PhaseRegimeSpecs) overlays on
// the base profile, so an adaptive runtime that converges is running
// the very engines the hand-tuned hints would have chosen — that
// equivalence is pinned by the adaptive-vs-hinted differential in
// internal/harness.
//
// Sampling is epoch-based and thread-local: each thread snapshots the
// phase's counters and, every Epoch completed top-level transactions
// in that phase, decides from its own delta (no cross-thread counter
// reads, so the Stats ownership rule is preserved). A probe epoch that
// observes (almost) no shared writes publishes the read-mostly variant
// — its unlogged snapshot-validated reads and zero write-path setup
// dominate whatever the captured share is; otherwise ≥ PromotePct
// captured accesses publishes the capture variant; ≤ DemotePct
// publishes skipshared; anything between stays on
// the probe (mixed regimes keep being measured). Fast variants demote
// themselves back to the probe when an epoch's abort ratio regresses
// by more than RegressPct over the probe baseline, and re-probe on a
// schedule (ProbeEvery epochs) so a workload whose regime drifts is
// re-measured. Publication is a single atomic per kind; other threads
// adopt the selection at their next transaction boundary or EnterPhase
// hint — engines still never change mid-transaction.

import (
	"math"
	"sync/atomic"

	"repro/internal/capture"
)

// Adaptive variant labels, as reported by PhaseStats.Variant and
// AdaptiveSelection.Variant. Manual phases and the default phase have
// an empty variant.
const (
	VariantProbe      = "probe"
	VariantCapture    = "capture"
	VariantSkipShared = "skipshared"
	VariantReadMostly = "readmostly"
)

// Defaults for AdaptiveConfig's tuning knobs (0 selects them).
const (
	// DefaultAdaptiveEpoch is the sampling window: completed top-level
	// transactions (commits + user aborts) per thread per decision.
	DefaultAdaptiveEpoch = 128
	// DefaultAdaptiveProbeEvery re-probes after this many fast epochs.
	DefaultAdaptiveProbeEvery = 32
	// DefaultPromotePct: captured share at or above which a probe epoch
	// selects the capture-checking variant. The ROADMAP's ">90%" was
	// measured too strict for real mixed transactions — tmmsg's batch
	// publish captures ~80% of its accesses (the rest are the shared
	// ring links) and is exactly the regime the capture engines win on.
	DefaultPromotePct = 0.60
	// DefaultDemotePct: captured share at or below which a probe epoch
	// selects the definitely-shared bypass. Like PromotePct this is set
	// from measurement, not purity: tmmsg's served cursor mix still
	// captures ~7% of its accesses (merged-reply staging, consume
	// scratch), and paying the capture check on the other ~93% costs
	// more than full barriers on that residue. 0.15 keeps genuinely
	// mixed regimes (tmmsg publish is ~80% captured) on the probe.
	DefaultDemotePct = 0.15
	// DefaultRegressPct: absolute abort-ratio increase over the probe
	// baseline that demotes a fast variant back to the probe.
	DefaultRegressPct = 0.50
	// DefaultReadMostlyPct: shared-write share (writes the Counting
	// classification could not prove captured, over all accesses) at or
	// below which a probe epoch selects the read-mostly variant. ~0
	// rather than exactly 0 so a scan regime with a stray shared write
	// per thousand accesses (a hit counter, a sampled touch) still
	// qualifies — the occasional upgrade costs one clock load. The
	// promotion additionally requires the epoch's shared-write *count*
	// to stay at or below UpgradePct per commit: the share is per
	// access, the upgrade toll is per transaction, and a regime whose
	// every transaction buries one shared link store under hundreds of
	// captured accesses would pass the share test only to upgrade on
	// every commit and thrash straight back through the demotion.
	DefaultReadMostlyPct = 0.01
	// DefaultUpgradePct: first-store upgrades per commit above which a
	// read-mostly epoch demotes back to the probe; the regime has
	// started writing shared data, so measure it again.
	DefaultUpgradePct = 0.05
)

// normalizeAdaptive fills zero tuning knobs with the defaults and
// validates ranges.
func normalizeAdaptive(a AdaptiveConfig) AdaptiveConfig {
	if !a.Enabled {
		return AdaptiveConfig{}
	}
	if a.Epoch <= 0 {
		a.Epoch = DefaultAdaptiveEpoch
	}
	if a.ProbeEvery <= 0 {
		a.ProbeEvery = DefaultAdaptiveProbeEvery
	}
	if a.PromotePct <= 0 {
		a.PromotePct = DefaultPromotePct
	}
	if a.DemotePct <= 0 {
		a.DemotePct = DefaultDemotePct
	}
	if a.RegressPct <= 0 {
		a.RegressPct = DefaultRegressPct
	}
	if a.ReadMostlyPct <= 0 {
		a.ReadMostlyPct = DefaultReadMostlyPct
	}
	if a.UpgradePct <= 0 {
		a.UpgradePct = DefaultUpgradePct
	}
	if a.DemotePct >= a.PromotePct {
		panic("stm: adaptive DemotePct must be below PromotePct")
	}
	return a
}

// adaptState is the shared selection state of one adaptive kind: the
// table indices of its four variants and the currently published
// selection. cur is the only cross-thread word; everything a decision
// reads is thread-local.
type adaptState struct {
	kind                     string
	probe, capture, skip, rm int           // engine-table indices
	cur                      atomic.Int32  // currently selected table index
	baseAbort                atomic.Uint64 // Float64bits of the last probe epoch's abort ratio
}

// compileAdaptive appends the four variant entries per adaptive kind
// to the engine table. Kinds already declared manually are skipped:
// the hand-tuned declaration is ground truth and adaptation must not
// override it. Each variant overlays the base configuration the same
// way a manual phase fragment would, so converged engine names match
// the hinted ones exactly.
func compileAdaptive(a AdaptiveConfig, phases []compiledPhase, idx map[string]int) ([]compiledPhase, []*adaptState) {
	if !a.Enabled {
		return phases, nil
	}
	if len(a.Kinds) == 0 {
		panic("stm: adaptive enabled with no kinds")
	}
	base := phases[0].cfg
	seen := make(map[string]bool, len(a.Kinds))
	var states []*adaptState
	for _, kind := range a.Kinds {
		if kind == "" {
			panic("stm: adaptive kind must be non-empty")
		}
		if seen[kind] {
			panic("stm: duplicate adaptive kind " + kind)
		}
		seen[kind] = true
		if _, manual := idx[kind]; manual {
			continue // manual hints are ground truth
		}
		capt := base
		capt.Read = BarrierOpt{Stack: true, Heap: true}
		capt.Write = BarrierOpt{Stack: true, Heap: true}
		capt.LogKind = capture.KindTree
		skip := base
		skip.SkipSharedChecks = true
		// The read-mostly variant overlays ReadMostly on the capture
		// shape (not the bare base): its store path keeps the stack+heap
		// capture dispatch, so the incidental captured stores of a scan
		// regime do not force upgrades — and the cfg matches the
		// canonical PhaseScan fragment exactly, name included.
		rmc := capt
		rmc.ReadMostly = true
		probe := capt
		probe.Counting = true  // classify captures (the training signal)
		probe.PerfMode = false // the probe needs the counters perf builds drop
		st := &adaptState{
			kind:  kind,
			probe: len(phases), capture: len(phases) + 1, skip: len(phases) + 2, rm: len(phases) + 3,
		}
		st.cur.Store(int32(st.probe)) // start by measuring
		idx[kind] = st.probe
		phases = append(phases,
			compiledPhase{kind: kind, variant: VariantProbe, cfg: probe, eng: newEngine(probe)},
			compiledPhase{kind: kind, variant: VariantCapture, cfg: capt, eng: newEngine(capt)},
			compiledPhase{kind: kind, variant: VariantSkipShared, cfg: skip, eng: newEngine(skip)},
			compiledPhase{kind: kind, variant: VariantReadMostly, cfg: rmc, eng: newEngine(rmc)},
		)
		states = append(states, st)
	}
	return phases, states
}

// AdaptiveSelection is the current engine choice for one adaptive kind.
type AdaptiveSelection struct {
	Kind    string // adaptive phase kind
	Variant string // one of the Variant* labels
	Engine  string // engine name of the selected variant
}

// AdaptiveSelections reports the current selection of every adaptive
// kind, in declaration order (empty when adaptation is off). Like
// Stats it is a monitoring/report surface: reading it concurrently
// with running threads sees a momentary selection.
func (rt *Runtime) AdaptiveSelections() []AdaptiveSelection {
	out := make([]AdaptiveSelection, 0, len(rt.adapt))
	for _, st := range rt.adapt {
		p := &rt.phases[st.cur.Load()]
		out = append(out, AdaptiveSelection{Kind: st.kind, Variant: p.variant, Engine: p.eng.name})
	}
	return out
}

// adaptEpochStart opens a fresh sampling window for the engine-table
// entry by snapshotting its counters.
func (th *Thread) adaptEpochStart(idx int) {
	th.adaptMark[idx] = th.phaseStats[idx]
}

// adaptiveTick runs at every top-level transaction boundary of an
// adaptive runtime (Atomic). It adopts a selection another thread
// published, and, once this thread has completed an epoch's worth of
// transactions in the current variant, decides from its own counter
// delta whether to move the kind's selection.
func (th *Thread) adaptiveTick() {
	idx := th.phase
	st := th.rt.adaptByIdx[idx]
	if st == nil {
		return // default or manual phase: nothing to adapt
	}
	if cur := int(st.cur.Load()); cur != idx {
		th.setPhase(cur) // adopt the published selection
		th.adaptEpochStart(cur)
		return
	}
	s := &th.phaseStats[idx]
	mark := &th.adaptMark[idx]
	done := (s.Commits - mark.Commits) + (s.UserAborts - mark.UserAborts)
	if done < uint64(th.rt.acfg.Epoch) {
		return
	}
	th.adaptiveDecide(st, idx, s, mark)
}

// adaptiveDecide closes one epoch at entry idx and publishes the next
// selection for st's kind. Probe epochs classify the captured share;
// fast epochs watch for abort-ratio regression and schedule re-probes.
func (th *Thread) adaptiveDecide(st *adaptState, idx int, s, mark *Stats) {
	acfg := &th.rt.acfg
	commits := s.Commits - mark.Commits
	if commits == 0 {
		commits = 1 // all-user-abort epoch: ratio over attempts that completed
	}
	abortRatio := float64(s.Aborts-mark.Aborts) / float64(commits)

	target := idx
	if idx == st.probe {
		total := (s.ReadTotal - mark.ReadTotal) + (s.WriteTotal - mark.WriteTotal)
		captured := (s.ReadCapStack - mark.ReadCapStack) + (s.ReadCapHeap - mark.ReadCapHeap) +
			(s.WriteCapStack - mark.WriteCapStack) + (s.WriteCapHeap - mark.WriteCapHeap)
		// Shared writes: the stores the capture classification could not
		// prove captured — exactly the stores that would force a
		// read-mostly attempt to upgrade.
		sharedWrites := (s.WriteTotal - mark.WriteTotal) -
			(s.WriteCapStack - mark.WriteCapStack) - (s.WriteCapHeap - mark.WriteCapHeap)
		var share, sharedWriteShare float64
		if total > 0 {
			share = float64(captured) / float64(total)
			sharedWriteShare = float64(sharedWrites) / float64(total)
		}
		// The probe epoch is the regression baseline for the fast
		// variants that follow it.
		st.baseAbort.Store(math.Float64bits(abortRatio))
		switch {
		case total > 0 && sharedWriteShare <= acfg.ReadMostlyPct &&
			float64(sharedWrites) <= acfg.UpgradePct*float64(commits):
			// Nearly no shared writes — and few enough that even one per
			// transaction could not push the upgrade rate past the
			// UpgradePct demotion. The read-mostly variant keeps the
			// capture elisions, never logs its full-barrier reads, and
			// skips all write-path setup, so here it dominates the
			// capture engine regardless of the captured share and is
			// checked first.
			target = st.rm
		case share >= acfg.PromotePct:
			target = st.capture
		case share <= acfg.DemotePct:
			target = st.skip
		}
		// Mixed regime: stay on the probe and keep measuring.
	} else {
		base := math.Float64frombits(st.baseAbort.Load())
		th.adaptFast[idx]++
		upgrades := float64(s.Upgrades-mark.Upgrades) / float64(commits)
		switch {
		case idx == st.rm && upgrades > acfg.UpgradePct:
			target = st.probe // the regime started writing shared data
			th.adaptFast[idx] = 0
		case abortRatio > base+acfg.RegressPct:
			target = st.probe // regression: this engine is losing; re-measure
			th.adaptFast[idx] = 0
		case th.adaptFast[idx] >= uint32(acfg.ProbeEvery):
			target = st.probe // scheduled re-probe
			th.adaptFast[idx] = 0
		}
	}
	th.adaptEpochStart(idx)
	if target != idx {
		// Lost races are fine: whoever published first wins and this
		// thread adopts the winning selection for its next transaction.
		st.cur.CompareAndSwap(int32(idx), int32(target))
		next := int(st.cur.Load())
		th.setPhase(next)
		th.adaptEpochStart(next)
	}
}
