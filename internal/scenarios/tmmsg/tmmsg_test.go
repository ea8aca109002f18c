package tmmsg

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/txlib"
	"repro/tm"
)

// runOnce drives one full workload lifecycle and fails on any
// validation error or leaked orec lock.
func runOnce(t *testing.T, cfg Config, p tm.Profile, threads int) (*B, *tm.Runtime) {
	t.Helper()
	b := New(cfg)
	rt := tm.Open(append(p.Options(), tm.WithMemory(b.MemConfig()))...)
	b.Setup(rt)
	rt.ResetStats() // counters cover the timed phase only, as in the harness
	b.Run(rt, threads)
	if err := b.Validate(rt); err != nil {
		t.Fatalf("%s [%s, %d threads]: %v", cfg.Name, p.Name(), threads, err)
	}
	rt.Validate()
	return b, rt
}

func TestRegisteredVariants(t *testing.T) {
	for _, name := range []string{"tmmsg", "tmmsg-pub", "tmmsg-sub"} {
		w, err := tm.NewWorkload(name)
		if err != nil {
			t.Fatalf("registry: %v", err)
		}
		if w.Name() != name {
			t.Errorf("workload %q reports name %q", name, w.Name())
		}
		if tm.WorkloadDescription(name) == "" {
			t.Errorf("workload %q registered without a description", name)
		}
	}
}

func TestMixSumsValidated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad mix did not panic")
		}
	}()
	cfg := Small()
	cfg.PublishPct += 5
	New(cfg)
}

func TestRunAndValidateSingleThread(t *testing.T) {
	b, _ := runOnce(t, Small(), tm.Baseline(), 1)
	var effects uint64
	for i := range b.perTh {
		st := &b.perTh[i]
		effects += st.batches + st.consumes + st.acks + st.lags + st.misses
	}
	if effects != uint64(b.cfg.Ops) {
		t.Errorf("accounted %d ops, want %d", effects, b.cfg.Ops)
	}
}

// TestRetentionDropsAndSkips forces the retention machinery: a tiny
// ring under a publish-heavy mix must drop old messages, and consumers
// chasing those topics must take cursor-reset skips.
func TestRetentionDropsAndSkips(t *testing.T) {
	cfg := Small()
	cfg.Name = "tmmsg-tiny-ring"
	cfg.Topics = 8
	cfg.RingCap = 4
	cfg.PreloadMsgs = 4
	cfg.PublishPct, cfg.ConsumePct, cfg.AckPct, cfg.LagPct = 60, 30, 5, 5
	b, _ := runOnce(t, cfg, tm.Baseline(), 1)
	var drops, skipped uint64
	for i := range b.perTh {
		drops += b.perTh[i].drops
		skipped += b.perTh[i].skipped
	}
	if drops == 0 {
		t.Error("tiny ring dropped nothing: retention path never ran")
	}
	if skipped == 0 {
		t.Error("no consumer cursor ever reset: skip path never ran")
	}
}

// TestCursorReconciliation is the headline broker property, asserted
// directly from the final state rather than through Validate's
// counters: for every (topic, group), consumed (acked + in-flight) +
// skipped + remaining == published.
func TestCursorReconciliation(t *testing.T) {
	cfg := Small()
	cfg.Ops = 2048
	for _, threads := range []int{1, 4} {
		b, rt := runOnce(t, cfg, tm.Baseline(), threads)
		th := rt.Unwrap().Thread(0)
		var tps []mem.Addr
		th.Atomic(func(tx *stm.Tx) {
			tps = tps[:0] // retry-safe
			txlib.HTForEach(tx, b.broker.index, txlib.TM, func(_ mem.Addr, _ int, data uint64) bool {
				tps = append(tps, mem.Addr(data))
				return true
			})
		})
		if len(tps) != cfg.Topics {
			t.Fatalf("%d threads: walked %d topics, want %d", threads, len(tps), cfg.Topics)
		}
		for ti, tp := range tps {
			tp := tp
			th.Atomic(func(tx *stm.Tx) {
				head := tx.Load(tp+tpHead, txlib.TM)
				for gi := 0; gi < b.cfg.Groups; gi++ {
					g := group(tx, tp, gi)
					consumed := tx.Load(g+grAcked, txlib.TM) + tx.Load(g+grInflight, txlib.TM)
					skipped := tx.Load(g+grSkipped, txlib.TM)
					remaining := head - tx.Load(g+grCursor, txlib.TM)
					if consumed+skipped+remaining != head {
						t.Errorf("%d threads, topic %d group %d: consumed %d + skipped %d + remaining %d != published %d",
							threads, ti, gi, consumed, skipped, remaining, head)
					}
				}
			})
		}
	}
}

// TestConcurrentStress is the short multi-goroutine stress run the
// race CI job leans on: several workers churn one broker, then the
// full cross-view validation must still hold.
func TestConcurrentStress(t *testing.T) {
	cfg := Small()
	cfg.Ops = 2048
	for _, threads := range []int{2, 4} {
		runOnce(t, cfg, tm.Baseline(), threads)
		runOnce(t, cfg, tm.RuntimeAll(tm.LogTree), threads)
	}
}

// TestDeterministicSingleThread runs the same configuration twice and
// compares full address-space checksums: the scenario must be
// bit-for-bit reproducible at one thread.
func TestDeterministicSingleThread(t *testing.T) {
	_, rt1 := runOnce(t, Small(), tm.Baseline(), 1)
	_, rt2 := runOnce(t, Small(), tm.Baseline(), 1)
	c1 := rt1.Unwrap().Space().Checksum()
	c2 := rt2.Unwrap().Space().Checksum()
	if c1 != c2 {
		t.Errorf("two identical runs left different spaces: %#x vs %#x", c1, c2)
	}
}

// TestElisionClaimsSound runs the soundness oracle: every statically
// elided access must genuinely be captured, or WithVerifyElision
// panics. This guards the provenance annotations on the whole broker.
func TestElisionClaimsSound(t *testing.T) {
	p := tm.CompilerElision().With(tm.WithVerifyElision())
	runOnce(t, Small(), p, 1)
	runOnce(t, Small(), p, 2)
}

// pubOnly is a batch-publish-only mix; subOnly is a consume/ack-only
// mix over preloaded topics. Together they isolate the scenario's two
// capture regimes.
func pubOnly() Config {
	cfg := Small()
	cfg.Name = "tmmsg-pubonly"
	cfg.PublishPct, cfg.ConsumePct, cfg.AckPct, cfg.LagPct = 100, 0, 0, 0
	return cfg
}

func subOnly() Config {
	cfg := Small()
	cfg.Name = "tmmsg-subonly"
	cfg.PublishPct, cfg.ConsumePct, cfg.AckPct, cfg.LagPct = 0, 60, 30, 10
	cfg.PreloadMsgs = cfg.RingCap // start with full rings to consume
	return cfg
}

// TestCaptureRegimesSeparate is the acceptance property of this
// scenario: the publish path must light up both elision mechanisms
// (captured-heap runtime checks and static provenance), while the
// cursor path — which allocates nothing — must show exactly zero
// captured-heap elisions and a far smaller elided fraction overall.
func TestCaptureRegimesSeparate(t *testing.T) {
	elidedFraction := func(s tm.Stats) float64 {
		total := s.ReadTotal + s.WriteTotal
		if total == 0 {
			return 0
		}
		return float64(s.ReadElided()+s.WriteElided()) / float64(total)
	}

	_, rt := runOnce(t, pubOnly(), tm.RuntimeAll(tm.LogTree), 1)
	pub := rt.Snapshot().Stats
	if pub.ReadElHeap == 0 || pub.WriteElHeap == 0 {
		t.Errorf("publish path elided no captured-heap barriers: reads %d, writes %d",
			pub.ReadElHeap, pub.WriteElHeap)
	}
	if pub.ReadElStack == 0 || pub.WriteElStack == 0 {
		t.Errorf("publish path elided no captured-stack barriers: reads %d, writes %d",
			pub.ReadElStack, pub.WriteElStack)
	}

	_, rt = runOnce(t, pubOnly(), tm.CompilerElision(), 1)
	pubStatic := rt.Snapshot().Stats
	if pubStatic.ReadElStatic == 0 || pubStatic.WriteElStatic == 0 {
		t.Errorf("publish path elided no barriers statically: reads %d, writes %d",
			pubStatic.ReadElStatic, pubStatic.WriteElStatic)
	}

	_, rt = runOnce(t, subOnly(), tm.RuntimeAll(tm.LogTree), 1)
	sub := rt.Snapshot().Stats
	if sub.ReadElHeap != 0 || sub.WriteElHeap != 0 {
		t.Errorf("cursor path should allocate nothing, yet elided heap barriers: reads %d, writes %d",
			sub.ReadElHeap, sub.WriteElHeap)
	}
	if pf, sf := elidedFraction(pub), elidedFraction(sub); pf < 2*sf || pf == 0 {
		t.Errorf("regimes not separated: publish elided %.1f%% of barriers, cursor %.1f%%", 100*pf, 100*sf)
	}

	skip := tm.RuntimeAll(tm.LogTree).With(tm.WithSkipSharedChecks()).Named("runtime+skipshared")
	_, rt = runOnce(t, subOnly(), skip, 1)
	s := rt.Snapshot().Stats
	if s.ReadSkipShared == 0 || s.WriteSkipShared == 0 {
		t.Errorf("definitely-shared extension bypassed no cursor-path checks: reads %d, writes %d",
			s.ReadSkipShared, s.WriteSkipShared)
	}
}

// TestScopedSetupKeepsChecksum: Setup inside thread 0's Exclusive
// scope leaves the space the same setup leaves with barriers, for every
// registered configuration and the served one, under the benchmark
// rig's two perf profiles; and the scope runs no barrier.
func TestScopedSetupKeepsChecksum(t *testing.T) {
	for _, cfg := range []Config{Mixed(), PubHeavy(), SubHeavy(), LagHeavy(), ServeMix()} {
		for _, p := range []tm.Profile{tm.Baseline().Perf(), tm.RuntimeAll(tm.LogTree).Perf()} {
			t.Run(cfg.Name+"/"+p.Name(), func(t *testing.T) {
				b := New(cfg)
				rt := tm.Open(append(p.Options(), tm.WithMemory(b.MemConfig()))...)
				b.Setup(rt)
				ref := tm.Open(append(p.Options(), tm.WithMemory(b.MemConfig()))...)
				cfg.setup(ref.Unwrap().Thread(0))
				if c, r := rt.Unwrap().Clock(), ref.Unwrap().Clock(); c != 0 || r == 0 {
					t.Fatalf("clocks %d scoped, %d with barriers: want 0 and more", c, r)
				}
				if got, want := rt.Unwrap().Space().Checksum(), ref.Unwrap().Space().Checksum(); got != want {
					t.Fatalf("scoped Setup checksum %#x, want %#x", got, want)
				}
			})
		}
	}
}
