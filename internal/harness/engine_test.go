package harness

import (
	"testing"

	"repro/tm"

	_ "repro/internal/scenarios/tmkv"
	_ "repro/internal/stamp/all"
)

// forceGeneric returns the profile with the reference barrier engine
// forced, under the same report name.
func forceGeneric(p tm.Profile) tm.Profile {
	return p.With(tm.WithEngine(tm.EngineGeneric)).Named(p.Name())
}

// runEngine drives one full workload lifecycle and returns the final
// address-space fingerprint plus the statistics of the timed phase
// (snapshotted before Validate, whose transactional walking would
// otherwise pollute the counters).
func runEngine(t *testing.T, bench string, p tm.Profile, threads int) (uint64, tm.Stats, string) {
	t.Helper()
	w, err := tm.NewWorkload(bench)
	if err != nil {
		t.Fatal(err)
	}
	rt := tm.Open(append(p.Options(), tm.WithMemory(w.MemConfig()))...)
	w.Setup(rt)
	rt.ResetStats()
	w.Run(rt, threads)
	stats := rt.Snapshot().Stats
	if err := w.Validate(rt); err != nil {
		t.Fatalf("%s [%s, engine %s, %d threads]: %v", bench, p.Name(), rt.Engine(), threads, err)
	}
	rt.Validate() // no orec may stay locked after the threads joined
	return rt.Unwrap().Space().Checksum(), stats, rt.Engine()
}

// TestEngineEquivalence is the engine-vs-generic differential: every
// registered workload under every named profile must produce a
// bit-identical final state AND identical capture-stat counters with
// the compiled engine vs the forced generic reference chain at one
// thread. A divergence means the specialization dropped or reordered a
// check the profile requires.
func TestEngineEquivalence(t *testing.T) {
	profiles := namedProfiles()
	benches := AllWorkloads()
	if testing.Short() {
		profiles = []tm.Profile{tm.Baseline(), tm.RuntimeAll(tm.LogTree), tm.CompilerElision()}
		benches = []string{"ssca2", "labyrinth", "tmkv"}
	}
	for _, bench := range benches {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			for _, p := range profiles {
				sum, stats, eng := runEngine(t, bench, p, 1)
				gsum, gstats, geng := runEngine(t, bench, forceGeneric(p), 1)
				if geng != "generic" {
					t.Fatalf("%s: forced engine is %q", p.Name(), geng)
				}
				if sum != gsum {
					t.Errorf("%s: engine %s final state %#x, generic %#x",
						p.Name(), eng, sum, gsum)
				}
				if stats != gstats {
					t.Errorf("%s: engine %s stats diverge from generic:\n  engine:  %+v\n  generic: %+v",
						p.Name(), eng, stats, gstats)
				}
			}
		})
	}
}

// perfProfiles returns the performance builds whose specialized engines
// the equivalence grid must cover (stats are off in perf mode, so these
// compare final state; the instrumented grid above compares counters).
func perfProfiles() []tm.Profile {
	return []tm.Profile{
		tm.Baseline().Perf(),
		tm.RuntimeAll(tm.LogTree).Perf(),
		tm.RuntimeAll(tm.LogArray).Perf(),
		tm.RuntimeAll(tm.LogFilter).Perf(),
		tm.RuntimeWrite(tm.LogTree).Perf(),
		tm.RuntimeHeapWrite(tm.LogTree).Perf(),
		tm.CompilerElision().Perf(),
		tm.CompilerElision().With(
			tm.WithRuntimeCapture(tm.StackAndHeap, tm.StackAndHeap)).Named("compiler+runtime").Perf(),
		tm.RuntimeAll(tm.LogTree).With(tm.WithSkipSharedChecks()).Named("runtime+skipshared").Perf(),
	}
}

// TestEngineEquivalencePerf repeats the differential for the perf
// builds — the profiles that actually compile to the specialized
// fast-path engines.
func TestEngineEquivalencePerf(t *testing.T) {
	profiles := perfProfiles()
	benches := AllWorkloads()
	if testing.Short() {
		profiles = profiles[:3]
		benches = []string{"ssca2", "tmkv"}
	}
	for _, bench := range benches {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			for _, p := range profiles {
				sum, _, eng := runEngine(t, bench, p, 1)
				gsum, _, _ := runEngine(t, bench, forceGeneric(p), 1)
				if sum != gsum {
					t.Errorf("%s: engine %s final state %#x, generic %#x",
						p.Name(), eng, sum, gsum)
				}
			}
		})
	}
}

// TestEngineParallelNoLeaks runs a contended slice of the grid at
// several threads under each engine family: final states are
// scheduling-dependent, but validation must pass and no orec lock may
// leak, specialized and generic alike.
func TestEngineParallelNoLeaks(t *testing.T) {
	profiles := []tm.Profile{
		tm.RuntimeAll(tm.LogTree).Perf(),               // specialized fast path
		forceGeneric(tm.RuntimeAll(tm.LogTree).Perf()), // reference chain
		tm.RuntimeAll(tm.LogTree),                      // instrumented (counting) engine
	}
	benches := AllWorkloads()
	if testing.Short() {
		benches = []string{"ssca2", "tmkv"}
	}
	for _, bench := range benches {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			for _, p := range profiles {
				runEngine(t, bench, p, 4)
			}
		})
	}
}
