package harness

import (
	"strings"
	"testing"

	"repro/tm"

	_ "repro/internal/scenarios/tmkv"
	_ "repro/internal/scenarios/tmmsg"
	_ "repro/internal/stamp/all"
)

// phased wraps a profile with the canonical phase declaration
// (PhaseRegimeSpecs — the one source of truth every phase-hint A/B
// shares), under a report name that marks the hinted rows.
func phased(p tm.Profile) tm.Profile {
	return p.With(tm.WithPhases(PhaseRegimeSpecs()...)).Named(p.Name() + "+phases")
}

// phaseRow is a comparable per-phase stats row: the engine name is
// intentionally dropped, because the specialized and forced-generic
// runs compile different engines by construction.
type phaseRow struct {
	kind  string
	stats tm.Stats
}

// runPhased drives one full workload lifecycle under a phased profile
// and returns the final-state fingerprint, the per-phase stats of the
// timed phase (snapshotted before Validate), and the engine label.
func runPhased(t *testing.T, bench string, p tm.Profile, threads int) (uint64, []phaseRow, string) {
	t.Helper()
	w, err := tm.NewWorkload(bench)
	if err != nil {
		t.Fatal(err)
	}
	rt := tm.Open(append(p.Options(), tm.WithMemory(w.MemConfig()))...)
	w.Setup(rt)
	rt.ResetStats()
	w.Run(rt, threads)
	rows := make([]phaseRow, 0, 3)
	for _, ps := range rt.Snapshot().Phases {
		rows = append(rows, phaseRow{kind: ps.Kind, stats: ps.Stats})
	}
	if err := w.Validate(rt); err != nil {
		t.Fatalf("%s [%s, engine %s, %d threads]: %v", bench, p.Name(), rt.Engine(), threads, err)
	}
	rt.Validate() // no orec may stay locked after the threads joined
	return rt.Unwrap().Space().Checksum(), rows, rt.Engine()
}

func equalPhaseRows(a, b []phaseRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEngineEquivalencePhased extends the engine-vs-generic
// differential across mid-run phase switches: every registered workload
// under every named profile, with the canonical phase declaration on
// top, must produce a bit-identical final state AND identical per-phase
// stats with the compiled engines vs the forced generic reference chain
// at one thread. Workloads that never hint run entirely in the default
// phase — the declaration alone must change nothing; tmmsg's driver
// hints every operation, so its runs actually cross engines mid-run.
func TestEngineEquivalencePhased(t *testing.T) {
	profiles := namedProfiles()
	benches := AllWorkloads()
	if testing.Short() {
		profiles = []tm.Profile{tm.Baseline(), tm.RuntimeAll(tm.LogTree), tm.CompilerElision()}
		benches = []string{"ssca2", "tmmsg", "tmmsg-sub"}
	}
	for _, bench := range benches {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			for _, p := range profiles {
				pp := phased(p)
				sum, rows, eng := runPhased(t, bench, pp, 1)
				gsum, grows, geng := runPhased(t, bench, forceGeneric(pp), 1)
				if !strings.HasPrefix(geng, "generic") {
					t.Fatalf("%s: forced engine is %q", pp.Name(), geng)
				}
				if sum != gsum {
					t.Errorf("%s: engine %s final state %#x, generic %#x",
						pp.Name(), eng, sum, gsum)
				}
				if !equalPhaseRows(rows, grows) {
					t.Errorf("%s: engine %s per-phase stats diverge from generic:\n  engine:  %+v\n  generic: %+v",
						pp.Name(), eng, rows, grows)
				}
			}
		})
	}
}

// TestPhaseHintsPreserveState pins that phase hints are a pure
// performance lever on the workloads that give them: the tmmsg
// variants must reach the same final state with and without the phase
// declaration under each named profile.
func TestPhaseHintsPreserveState(t *testing.T) {
	profiles := namedProfiles()
	if testing.Short() {
		profiles = profiles[:3]
	}
	for _, bench := range []string{"tmmsg", "tmmsg-pub", "tmmsg-sub"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			for _, p := range profiles {
				base, _, _ := runEngine(t, bench, p, 1)
				sum, _, _ := runPhased(t, bench, phased(p), 1)
				if sum != base {
					t.Errorf("%s: phased final state %#x, unphased %#x", p.Name(), sum, base)
				}
			}
		})
	}
}

// TestEnginePhasedParallelNoLeaks runs contended phased slices of the
// grid: final states are scheduling-dependent, but validation must pass
// and no orec lock may leak while threads switch engines mid-run,
// specialized and forced-generic alike.
func TestEnginePhasedParallelNoLeaks(t *testing.T) {
	profiles := []tm.Profile{
		phased(tm.RuntimeAll(tm.LogTree).Perf()),               // specialized per-phase fast paths
		forceGeneric(phased(tm.RuntimeAll(tm.LogTree).Perf())), // reference chain in every phase
		phased(tm.RuntimeAll(tm.LogTree)),                      // instrumented engines
	}
	benches := AllWorkloads()
	if testing.Short() {
		benches = []string{"tmmsg", "tmkv"}
	}
	for _, bench := range benches {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			for _, p := range profiles {
				runPhased(t, bench, p, 4)
			}
		})
	}
}

// TestPhasedRunReportsPhaseRows pins the harness plumbing: a phased
// profile's Result carries the per-phase breakdown (snapshotted before
// Validate) and the "+phases" engine marker, and the tmmsg driver's
// hints actually land transactions in both declared phases.
func TestPhasedRunReportsPhaseRows(t *testing.T) {
	res, err := Run("tmmsg-sub", phased(tm.RuntimeAll(tm.LogTree)), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(res.Engine, "+phases") {
		t.Errorf("engine label %q lacks the +phases marker", res.Engine)
	}
	if len(res.PhaseStats) != 4 {
		t.Fatalf("PhaseStats rows = %d, want 4 (default, publish, cursor, scan)", len(res.PhaseStats))
	}
	var pub, cur tm.Stats
	for _, ps := range res.PhaseStats {
		switch ps.Kind {
		case tm.PhasePublish:
			pub = ps.Stats
		case tm.PhaseCursor:
			cur = ps.Stats
		}
	}
	if pub.Commits == 0 || cur.Commits == 0 {
		t.Errorf("phase rows not populated: publish %d commits, cursor %d commits",
			pub.Commits, cur.Commits)
	}
	// The regimes separate exactly as the capture report shows: the
	// publish phase elides captured-heap barriers, the cursor phase
	// (which allocates nothing) cannot.
	if pub.WriteElHeap == 0 {
		t.Error("publish phase elided no captured-heap writes")
	}
	if cur.WriteElHeap != 0 || cur.ReadElHeap != 0 {
		t.Errorf("cursor phase elided captured-heap barriers: %d reads, %d writes",
			cur.ReadElHeap, cur.WriteElHeap)
	}
	total := res.Stats
	var sum tm.Stats
	for _, ps := range res.PhaseStats {
		sum.Add(&ps.Stats)
	}
	if total != sum {
		t.Errorf("Stats %+v != sum of phase rows %+v", total, sum)
	}
	// An unphased profile reports no phase rows: the JSON field stays
	// absent and old reports keep diffing cleanly.
	plain, err := Run("ssca2", tm.Baseline(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.PhaseStats) != 0 {
		t.Errorf("unphased run carries %d phase rows", len(plain.PhaseStats))
	}
}
