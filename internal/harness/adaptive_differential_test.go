package harness

// The adaptive-vs-hinted differential: an adaptive runtime given no
// per-phase engine declaration must converge, from its own epoch
// samples, to the same engines the canonical hand-tuned declaration
// (PhaseRegimeSpecs) assigns on the tmmsg mix — publish onto the
// capture-checking fast path, cursor onto the definitely-shared
// bypass, scan onto the read-mostly engine — and the converged run
// must leave the address space bit-identical to the hinted one. The
// manual hints stay ground truth; adaptation's contract is to
// rediscover them, not to improve on them.

import (
	"testing"

	"repro/internal/scenarios/tmmsg"
	"repro/tm"
	"repro/tm/serve"
)

// adaptiveDiffRequests sizes the stream so every adaptive kind
// completes several sampling epochs even after merging collapses ~8
// requests into one commit: 40% publish / 60% cursor over 2048
// requests is ≥100 commits per kind at width 8, against a 16-commit
// epoch.
const adaptiveDiffRequests = 2048

func TestAdaptiveConvergesToHintedEngines(t *testing.T) {
	const seed, width = 21, 8
	newBackend := func() serve.Backend {
		return tmmsg.NewMsgBackend(diffMsgConfig(adaptiveDiffRequests))
	}
	serveCfg := func(p tm.Profile) serve.Config {
		return serve.Config{
			Workers: 1, MergeWidth: width,
			QueueDepth: adaptiveDiffRequests, Requests: adaptiveDiffRequests,
			Options: p.Options(),
		}
	}
	base := tm.RuntimeAll(tm.LogTree).Perf()

	hinted := base.With(tm.WithPhases(PhaseRegimeSpecs()...)).Named("hinted")
	hintedRun, hintedSrv := runServedCfg(t, newBackend(), serveCfg(hinted), adaptiveDiffRequests, seed)
	hintedEngines := map[string]string{
		tm.PhasePublish: hintedSrv.Runtime().EngineFor(tm.PhasePublish),
		tm.PhaseCursor:  hintedSrv.Runtime().EngineFor(tm.PhaseCursor),
		tm.PhaseScan:    hintedSrv.Runtime().EngineFor(tm.PhaseScan),
	}

	// ProbeEvery is pinned huge so a scheduled re-probe cannot land near
	// the end of the run and leave the final selection on the probe; the
	// epoch is small enough for several decisions per kind.
	adaptive := base.With(tm.WithAdaptive(tm.AdaptiveConfig{
		Epoch: 16, ProbeEvery: 1 << 20,
	})).Named("adaptive")
	adaptRun, adaptSrv := runServedCfg(t, newBackend(), serveCfg(adaptive), adaptiveDiffRequests, seed)

	wantVariant := map[string]string{
		tm.PhasePublish: tm.VariantCapture,
		tm.PhaseCursor:  tm.VariantSkipShared,
		tm.PhaseScan:    tm.VariantReadMostly,
	}
	sels := adaptSrv.Runtime().Snapshot().Adaptive
	if len(sels) != 3 {
		t.Fatalf("adaptive selections = %+v, want publish, cursor, and scan rows", sels)
	}
	for _, sel := range sels {
		if sel.Variant != wantVariant[sel.Kind] {
			t.Errorf("%s converged to %q, want %q", sel.Kind, sel.Variant, wantVariant[sel.Kind])
		}
		if sel.Engine != hintedEngines[sel.Kind] {
			t.Errorf("%s engine = %q, hinted declaration compiles %q",
				sel.Kind, sel.Engine, hintedEngines[sel.Kind])
		}
	}
	for kind, want := range hintedEngines {
		if got := adaptSrv.Runtime().EngineFor(kind); got != want {
			t.Errorf("EngineFor(%s) = %q, want %q", kind, got, want)
		}
	}

	// Same request stream, same batch composition (one worker, fixed
	// width, all queued before Start): whatever engines adaptation moved
	// through, the committed state and every reply must be bit-identical
	// to the hinted run.
	if adaptRun.checksum != hintedRun.checksum {
		t.Errorf("final state %#x, hinted %#x", adaptRun.checksum, hintedRun.checksum)
	}
	if i, ok := sameReplies(hintedRun.replies, adaptRun.replies); !ok {
		t.Errorf("reply %d = %v, hinted %v", i, adaptRun.replies[i], hintedRun.replies[i])
	}

	// The trajectory is real: some publish work ran on the probe before
	// promotion, and the promoted variant carried the bulk.
	var probe, fast uint64
	for _, row := range adaptSrv.Runtime().Snapshot().Phases {
		if row.Kind != tm.PhasePublish {
			continue
		}
		switch row.Variant {
		case tm.VariantProbe:
			probe = row.Stats.Commits
		case tm.VariantCapture:
			fast = row.Stats.Commits
		}
	}
	if probe == 0 || fast == 0 {
		t.Errorf("publish trajectory probe=%d capture=%d, want both nonzero", probe, fast)
	}
	if fast < probe {
		t.Errorf("promoted variant ran %d commits vs probe %d: promotion came too late", fast, probe)
	}
}
