package harness

// Cross-manager differentials beyond the workload grid (grid_test.go
// holds TestCMDifferentialProfiles and TestCMParallelNoLeaks): a
// contention manager decides how a thread waits after a conflict —
// never what a transaction computes — so a served request stream must
// return bit-identical replies whichever manager resolves its
// conflicts, symmetric writers must not livelock under the none
// manager, and the adaptive selector must settle on a real manager.

import (
	"testing"

	"repro/internal/scenarios/tmkv"
	"repro/internal/scenarios/tmmsg"
	"repro/tm"
	"repro/tm/serve"
)

// TestServeCMReplyIdentity drives the served differential streams with
// each runtime-wide manager: a single worker over a pre-queued stream
// is fully deterministic, so state and every reply must match the
// default-manager run bit for bit. (The per-phase manager mix rides
// along in TestServeMergeDifferentialMsg via PhaseRegimeSpecs, whose
// fragments now carry WithContention.)
func TestServeCMReplyIdentity(t *testing.T) {
	const seed, width = 21, 8
	backends := map[string]func() serve.Backend{
		"srv-tmkv":  func() serve.Backend { return tmkv.NewKVBackend(diffKVConfig()) },
		"srv-tmmsg": func() serve.Backend { return tmmsg.NewMsgBackend(diffMsgConfig(diffRequests)) },
	}
	for name, nb := range backends {
		name, nb := name, nb
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base := runServed(t, nb(), tm.Baseline(), 1, width, diffRequests, seed)
			for _, m := range []tm.CM{tm.CMNone, tm.CMQueue} {
				p := tm.Baseline().With(tm.WithContention(m)).Named("baseline+cm" + m)
				got := runServed(t, nb(), p, 1, width, diffRequests, seed)
				if got.checksum != base.checksum {
					t.Errorf("%s under %s: final state %#x, want %#x",
						name, p.Name(), got.checksum, base.checksum)
				}
				if i, ok := sameReplies(base.replies, got.replies); !ok {
					t.Errorf("%s under %s: reply %d = %v, want %v",
						name, p.Name(), i, got.replies[i], base.replies[i])
				}
			}
		})
	}
}

// TestCMLivelockProfiles is the livelock regression at the tm layer:
// two threads writing the same two words in opposite orders under the
// none manager, across the profile grid the conflict path actually
// varies over — including the read-mostly engine, whose fallback
// (attempt 3 re-runs on the full engine) composes with the none
// manager's own escalation (attempt 8 starts backing off). The run
// must terminate with every increment applied and a bounded abort
// bill; an unbounded ratio means escalation failed and symmetric
// writers ping-ponged.
func TestCMLivelockProfiles(t *testing.T) {
	const iters = 400
	profiles := []tm.Profile{
		tm.Baseline(),
		tm.RuntimeAll(tm.LogTree),
		tm.RuntimeAll(tm.LogTree).With(tm.WithReadMostly()).Named("runtime+readmostly"),
	}
	for _, p := range profiles {
		p := p.With(tm.WithContention(tm.CMNone)).Named(p.Name() + "+cmnone")
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
				t.Errorf("abort ratio %.1f: none-manager escalation failed to break the livelock", s.AbortRatio())
			}
			rt.Validate()
		})
	}
}

// TestAdaptiveCMOnMsg pins the adaptive manager trajectory on the
// tmmsg mix. The single-worker half is deterministic: a pre-queued
// stream on one worker never conflicts, so every adaptively managed
// kind must settle on the none manager (abort ratio 0 is below
// CMNonePct at every epoch close). The four-worker half is
// scheduling-dependent on contention, so it pins the API instead:
// every selection names a real manager and CMFor routes through the
// same adaptive state the selections report.
func TestAdaptiveCMOnMsg(t *testing.T) {
	const seed, width = 21, 8
	adaptive := tm.RuntimeAll(tm.LogTree).Perf().
		With(tm.WithAdaptive(tm.AdaptiveConfig{Epoch: 16, ProbeEvery: 1 << 20})).
		Named("adaptive")
	newBackend := func() serve.Backend {
		return tmmsg.NewMsgBackend(diffMsgConfig(adaptiveDiffRequests))
	}
	cfg := func(workers int) serve.Config {
		return serve.Config{
			Workers: workers, MergeWidth: width,
			QueueDepth: adaptiveDiffRequests, Requests: adaptiveDiffRequests,
			Options: adaptive.Options(),
		}
	}

	_, solo := runServedCfg(t, newBackend(), cfg(1), adaptiveDiffRequests, seed)
	sels := solo.Runtime().Snapshot().Adaptive
	if len(sels) == 0 {
		t.Fatal("no adaptive selections on the tmmsg run")
	}
	for _, sel := range sels {
		if sel.CM != tm.CMNone {
			t.Errorf("uncontended %s settled on manager %q, want %q", sel.Kind, sel.CM, tm.CMNone)
		}
	}

	_, quad := runServedCfg(t, newBackend(), cfg(4), adaptiveDiffRequests, seed)
	for _, sel := range quad.Runtime().Snapshot().Adaptive {
		switch sel.CM {
		case tm.CMBackoff, tm.CMNone, tm.CMQueue:
		default:
			t.Errorf("contended %s selected unknown manager %q", sel.Kind, sel.CM)
		}
		if got := quad.Runtime().CMFor(sel.Kind); got != sel.CM {
			t.Errorf("CMFor(%s) = %q, selection reports %q", sel.Kind, got, sel.CM)
		}
		t.Logf("contended %s manager = %q", sel.Kind, sel.CM)
	}
}
