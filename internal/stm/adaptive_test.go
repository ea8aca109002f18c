package stm

import (
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/mem"
)

// adaptiveCfg returns a perf base profile adapting "publish" and
// "cursor" with a small epoch, so tests converge in a few dozen
// transactions.
func adaptiveCfg(epoch int) OptConfig {
	cfg := RuntimeAll(capture.KindTree).Perf()
	cfg.Adaptive = AdaptiveConfig{
		Enabled: true,
		Kinds:   []string{"publish", "cursor"},
		Epoch:   epoch,
	}
	return cfg
}

// runCaptured executes one allocate-build-publish transaction: eight of
// its nine barriers target captured memory (a fresh allocation), one
// store links the record into a shared slot, so a probe epoch observes
// ~89% captured share. The shared link is what keeps this regime off
// the read-mostly variant — every transaction would upgrade on it — and
// on the capture engine (a kind with no shared writes at all selects
// read-mostly instead; see readmostly_test.go).
func runCaptured(th *Thread, g mem.Addr) {
	th.Atomic(func(tx *Tx) {
		p := tx.Alloc(4)
		for i := 0; i < 4; i++ {
			tx.Store(p+mem.Addr(i), uint64(i), AccAuto)
		}
		for i := 0; i < 4; i++ {
			_ = tx.Load(p+mem.Addr(i), AccAuto)
		}
		tx.Store(g, uint64(p), AccShared)
		tx.Free(p)
	})
}

// runShared executes one read-modify-write on a shared global: zero
// captured accesses.
func runShared(th *Thread, g mem.Addr) {
	th.Atomic(func(tx *Tx) {
		tx.Store(g, tx.Load(g, AccShared)+1, AccShared)
	})
}

// TestAdaptiveCompilation pins the adaptive engine table: four variant
// entries per adaptive kind, probe selected initially, manual
// declarations left alone, the "+adaptive" marker, and the variant
// configurations matching what a manual fragment would compile to.
func TestAdaptiveCompilation(t *testing.T) {
	rt := newRT(adaptiveCfg(8))
	// Table: default + 2 kinds x 4 variants.
	if len(rt.phases) != 9 {
		t.Fatalf("engine table has %d entries, want 9", len(rt.phases))
	}
	if got := rt.Engine(); got != "perf-rw-stack-heap-tree+adaptive" {
		t.Errorf("Engine() = %q", got)
	}
	if kinds := rt.PhaseKinds(); len(kinds) != 2 || kinds[0] != "publish" || kinds[1] != "cursor" {
		t.Errorf("PhaseKinds = %v", kinds)
	}
	sels := rt.AdaptiveSelections()
	if len(sels) != 2 {
		t.Fatalf("AdaptiveSelections rows = %d, want 2", len(sels))
	}
	for _, sel := range sels {
		if sel.Variant != VariantProbe {
			t.Errorf("%s starts on %q, want probe", sel.Kind, sel.Variant)
		}
		if sel.Engine != "counting" {
			t.Errorf("%s probe engine = %q, want counting", sel.Kind, sel.Engine)
		}
	}
	// The fast variants compile to the same engines the canonical manual
	// declaration (capture fragment / skipshared fragment on this base)
	// would produce.
	st := rt.adapt[0]
	if got := rt.phases[st.capture].eng.name; got != "perf-rw-stack-heap-tree" {
		t.Errorf("capture variant engine = %q", got)
	}
	if got := rt.phases[st.skip].eng.name; got != "perf-rw-stack-heap-tree+skipshared" {
		t.Errorf("skipshared variant engine = %q", got)
	}
	if got := rt.phases[st.rm].eng.name; got != "perf-readmostly" {
		t.Errorf("readmostly variant engine = %q", got)
	}
	if rm := rt.phases[st.rm].eng; !rm.rm || !samePair(rm, rt.phases[st.capture].eng) {
		t.Errorf("readmostly variant = %+v, want the capture variant's pair in read-mostly mode", rm)
	}

	// A kind declared manually is ground truth: no variants for it.
	mixed := adaptiveCfg(8)
	mixed.Phases = []PhaseConfig{{Kind: "publish", Cfg: Baseline()}}
	mrt := newRT(mixed)
	if len(mrt.phases) != 6 { // default + manual publish + 4 cursor variants
		t.Errorf("mixed table has %d entries, want 6", len(mrt.phases))
	}
	if len(mrt.adapt) != 1 || mrt.adapt[0].kind != "cursor" {
		t.Errorf("mixed adapt states = %+v", mrt.adapt)
	}
	if got := mrt.Engine(); got != "perf-rw-stack-heap-tree+phases+adaptive" {
		t.Errorf("mixed Engine() = %q", got)
	}
	if kinds := mrt.PhaseKinds(); len(kinds) != 2 || kinds[0] != "publish" || kinds[1] != "cursor" {
		t.Errorf("mixed PhaseKinds = %v", kinds)
	}
}

func TestAdaptiveValidation(t *testing.T) {
	expectPanic := func(name string, cfg OptConfig) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: New did not panic", name)
			}
		}()
		newRT(cfg)
	}
	empty := Baseline()
	empty.Adaptive = AdaptiveConfig{Enabled: true}
	expectPanic("no kinds", empty)
	blank := Baseline()
	blank.Adaptive = AdaptiveConfig{Enabled: true, Kinds: []string{""}}
	expectPanic("empty kind", blank)
	dup := Baseline()
	dup.Adaptive = AdaptiveConfig{Enabled: true, Kinds: []string{"a", "a"}}
	expectPanic("duplicate kind", dup)
	bad := Baseline()
	bad.Adaptive = AdaptiveConfig{Enabled: true, Kinds: []string{"a"}, PromotePct: 0.1, DemotePct: 0.2}
	expectPanic("demote above promote", bad)
}

// TestAdaptivePromotion pins the headline behavior: a kind whose probe
// epochs observe a high captured share is promoted to the capture-
// checking fast path, and one capturing nothing gets the
// definitely-shared bypass — with EngineFor following the selection.
func TestAdaptivePromotion(t *testing.T) {
	const epoch = 8
	rt := newRT(adaptiveCfg(epoch))
	th := rt.Thread(0)
	g := rt.Space().AllocGlobal(1)

	th.EnterPhase("publish")
	for i := 0; i < 3*epoch; i++ {
		runCaptured(th, g)
	}
	th.EnterPhase("cursor")
	for i := 0; i < 3*epoch; i++ {
		runShared(th, g)
	}

	want := map[string]string{"publish": VariantCapture, "cursor": VariantSkipShared}
	for _, sel := range rt.AdaptiveSelections() {
		if sel.Variant != want[sel.Kind] {
			t.Errorf("%s selected %q, want %q", sel.Kind, sel.Variant, want[sel.Kind])
		}
	}
	if got := rt.EngineFor("publish"); got != "perf-rw-stack-heap-tree" {
		t.Errorf("EngineFor(publish) = %q", got)
	}
	if got := rt.EngineFor("cursor"); got != "perf-rw-stack-heap-tree+skipshared" {
		t.Errorf("EngineFor(cursor) = %q", got)
	}
	// The trajectory is visible in the per-variant stats rows: the first
	// epoch ran on the probe, later ones on the fast variant.
	var probeCommits, fastCommits uint64
	for _, row := range rt.PhaseStats() {
		if row.Kind != "publish" {
			continue
		}
		switch row.Variant {
		case VariantProbe:
			probeCommits = row.Stats.Commits
		case VariantCapture:
			fastCommits = row.Stats.Commits
		}
	}
	if probeCommits == 0 || fastCommits == 0 {
		t.Errorf("publish trajectory probe=%d capture=%d, want both nonzero", probeCommits, fastCommits)
	}
	rt.Validate()
}

// TestAdaptiveMixedStaysOnProbe: a phase alternating captured and
// shared work (share between the thresholds) keeps being measured.
func TestAdaptiveMixedStaysOnProbe(t *testing.T) {
	const epoch = 8
	rt := newRT(adaptiveCfg(epoch))
	th := rt.Thread(0)
	g := rt.Space().AllocGlobal(1)

	th.EnterPhase("publish")
	for i := 0; i < 4*epoch; i++ {
		// Half captured, half shared accesses per transaction: ~50%
		// captured share, inside the (5%, 60%) hysteresis band.
		th.Atomic(func(tx *Tx) {
			p := tx.Alloc(2)
			tx.Store(p, uint64(i), AccAuto)
			tx.Store(p+1, uint64(i), AccAuto)
			tx.Store(g, tx.Load(g, AccShared)+1, AccShared)
			tx.Free(p)
		})
	}
	for _, sel := range rt.AdaptiveSelections() {
		if sel.Kind == "publish" && sel.Variant != VariantProbe {
			t.Errorf("mixed publish moved to %q, want probe", sel.Variant)
		}
	}
}

// TestAdaptiveReprobe pins the re-probe schedule: after ProbeEvery fast
// epochs the kind returns to the probe, so its probe row keeps
// accumulating commits well past the first epoch.
func TestAdaptiveReprobe(t *testing.T) {
	const epoch = 4
	cfg := adaptiveCfg(epoch)
	cfg.Adaptive.ProbeEvery = 2
	rt := newRT(cfg)
	th := rt.Thread(0)
	g := rt.Space().AllocGlobal(1)

	th.EnterPhase("publish")
	// 1 probe epoch + 2 fast + 1 probe + 2 fast + ... : ~1/3 of epochs
	// probe after the first.
	for i := 0; i < 12*epoch; i++ {
		runCaptured(th, g)
	}
	var probeCommits uint64
	for _, row := range rt.PhaseStats() {
		if row.Kind == "publish" && row.Variant == VariantProbe {
			probeCommits = row.Stats.Commits
		}
	}
	if probeCommits <= epoch {
		t.Errorf("probe row commits = %d, want > %d (re-probe never fired)", probeCommits, epoch)
	}
}

// TestAdaptiveSwitchStress is the -race pin: threads hammer shared
// counters while flipping between adaptive kinds, so selections are
// published and adopted concurrently. The final sums must be exact,
// every commit must be attributed to some row, and no orec may leak.
func TestAdaptiveSwitchStress(t *testing.T) {
	const threads, perThread = 4, 2000
	rt := newRT(adaptiveCfg(16))
	g := rt.Space().AllocGlobal(1)
	kinds := []string{"", "publish", "cursor"}
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			th := rt.Thread(tid)
			for i := 0; i < perThread; i++ {
				th.EnterPhase(kinds[(tid+i)%len(kinds)])
				if i%2 == 0 {
					th.Atomic(func(tx *Tx) {
						tx.Store(g, tx.Load(g, AccShared)+1, AccShared)
					})
				} else {
					th.Atomic(func(tx *Tx) {
						p := tx.Alloc(1)
						tx.Store(p, uint64(i), AccAuto)
						tx.Free(p)
						tx.Store(g, tx.Load(g, AccShared)+1, AccShared)
					})
				}
			}
		}(tid)
	}
	wg.Wait()
	if got := rt.Space().Load(g); got != threads*perThread {
		t.Errorf("counter = %d, want %d", got, threads*perThread)
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
