// Package harness runs the paper's experiments: it instantiates a
// workload from the tm registry under an optimization profile, times
// the parallel phase over repeated runs, validates the result, and
// formats the tables and figure series of the evaluation section
// (Sec. 4). The public façade over this package is tm/bench.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/tm"
)

// Result is the outcome of running one workload under one profile at
// one thread count.
type Result struct {
	Bench   string
	Config  string
	Engine  string // barrier engine the profile compiled to
	Threads int
	Times   []time.Duration // one per run
	Stats   tm.Stats        // from the last run

	// PhaseStats is the per-phase breakdown of the last run, populated
	// only when the profile declares phases (tm.WithPhases).
	PhaseStats []tm.PhaseStats

	// Latency is the open-loop service-time block, populated only by
	// RunOpenLoop (nil for throughput results).
	Latency *LatencyStats
}

// Run executes the workload `runs` times (fresh instance each run;
// setup and validation excluded from timing) and returns the result.
// Workloads are resolved through the tm registry, so anything
// registered with tm.RegisterWorkload — the STAMP ports or an
// external scenario package — runs identically.
func Run(bench string, p tm.Profile, threads, runs int) (Result, error) {
	res := Result{Bench: bench, Config: p.Name(), Threads: threads}
	for i := 0; i < runs; i++ {
		w, err := tm.NewWorkload(bench)
		if err != nil {
			return res, err
		}
		rt := tm.Open(append(p.Options(), tm.WithMemory(w.MemConfig()))...)
		w.Setup(rt)
		rt.ResetStats() // report the timed phase only
		res.Times = append(res.Times, timedRun(w, rt, threads))
		// Snapshot before Validate: validation may itself transact
		// (tmmsg walks every topic, vacation re-reads every table), and
		// that work must not leak into the reported counters.
		snap := rt.Snapshot()
		res.Engine = snap.Engine
		res.Stats = snap.Stats
		if len(rt.Phases()) > 0 {
			res.PhaseStats = snap.Phases
		}
		if err := w.Validate(rt); err != nil {
			rt.Close()
			return res, fmt.Errorf("%s [%s, %d threads]: %w", bench, p.Name(), threads, err)
		}
		if err := rt.Close(); err != nil {
			return res, fmt.Errorf("%s [%s, %d threads]: closing runtime: %w", bench, p.Name(), threads, err)
		}
	}
	return res, nil
}

// timedRun times the parallel phase with the Go runtime quiesced: GC
// now, then hold the collector off until the run finishes (the
// workloads allocate little Go memory), so the timed region measures
// the STM. The deferred restore keeps GC enabled for the rest of the
// process even when a workload panics.
func timedRun(w tm.Workload, rt *tm.Runtime, threads int) time.Duration {
	runtime.GC()
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	start := time.Now()
	w.Run(rt, threads)
	return time.Since(start)
}

// RunMatrix measures the workload under every profile, interleaving
// the profiles round-robin so slow drift in machine speed (thermal,
// noisy neighbors) biases no configuration. Results are indexed like
// profiles.
func RunMatrix(bench string, profiles []tm.Profile, threads, runs int) ([]Result, error) {
	results := make([]Result, len(profiles))
	for i, p := range profiles {
		results[i] = Result{Bench: bench, Config: p.Name(), Threads: threads}
	}
	for r := 0; r < runs; r++ {
		for i, p := range profiles {
			one, err := Run(bench, p, threads, 1)
			if err != nil {
				return nil, err
			}
			results[i].Engine = one.Engine
			results[i].Times = append(results[i].Times, one.Times[0])
			results[i].Stats = one.Stats
			results[i].PhaseStats = one.PhaseStats
		}
	}
	return results, nil
}

// DefaultThreadCounts returns a machine-sized sweep: every power of two
// below the CPU count, then the CPU count itself — e.g. 1,2,4,8 on an
// 8-way machine, 1,2,4,6 on a 6-way one.
func DefaultThreadCounts() []int {
	n := runtime.NumCPU()
	var ts []int
	for t := 1; t < n; t *= 2 {
		ts = append(ts, t)
	}
	return append(ts, n)
}

// Sweep measures the workload under the profile at each thread count —
// one scaling curve, printed by WriteSweep. A nil threadCounts uses
// DefaultThreadCounts.
func Sweep(bench string, p tm.Profile, threadCounts []int, runs int) ([]Result, error) {
	if len(threadCounts) == 0 {
		threadCounts = DefaultThreadCounts()
	}
	results := make([]Result, 0, len(threadCounts))
	for _, th := range threadCounts {
		res, err := Run(bench, p, th, runs)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// SweepMatrix runs Sweep for every profile and concatenates the
// results: the full bench × profile × threads grid of one workload.
func SweepMatrix(bench string, profiles []tm.Profile, threadCounts []int, runs int) ([]Result, error) {
	var all []Result
	for _, p := range profiles {
		results, err := Sweep(bench, p, threadCounts, runs)
		if err != nil {
			return nil, err
		}
		all = append(all, results...)
	}
	return all, nil
}

// Mean returns the mean run time.
func (r Result) Mean() time.Duration {
	var sum time.Duration
	for _, t := range r.Times {
		sum += t
	}
	return sum / time.Duration(len(r.Times))
}

// Median returns the median run time (robust against scheduler noise):
// the middle sample, or the mean of the two middle samples when the
// run count is even.
func (r Result) Median() time.Duration {
	ts := append([]time.Duration(nil), r.Times...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	mid := len(ts) / 2
	if len(ts)%2 == 0 {
		return (ts[mid-1] + ts[mid]) / 2
	}
	return ts[mid]
}

// Min returns the fastest run time. For CPU-bound runs on a shared
// machine the minimum is the most repeatable comparison statistic:
// noise (scheduler preemption, frequency shifts, collector activity)
// only ever adds time.
func (r Result) Min() time.Duration {
	min := r.Times[0]
	for _, t := range r.Times[1:] {
		if t < min {
			min = t
		}
	}
	return min
}

// RelStdDev returns the percent relative standard deviation of the run
// times — the paper's Table 2 metric.
func (r Result) RelStdDev() float64 {
	if len(r.Times) < 2 {
		return 0
	}
	m := float64(r.Mean())
	var ss float64
	for _, t := range r.Times {
		d := float64(t) - m
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(r.Times)-1))
	return 100 * sd / m
}

// Improvement returns the percent performance improvement of opt over
// base (the paper's Fig. 10/11 metric): positive means opt is faster.
// It compares minima (see Min).
func Improvement(base, opt Result) float64 {
	return 100 * (float64(base.Min()) - float64(opt.Min())) / float64(base.Min())
}

// PhaseRegimeSpecs returns the canonical three-regime phase
// declaration: publish-shaped transactions onto the capture-checking
// engines, cursor-shaped ones onto the definitely-shared bypass, and
// scan-shaped ones onto the read-mostly engine — the mapping the
// scenario drivers' EnterPhase hints are written for. Everything that
// A/Bs phase hints (the phased engine-equivalence differential,
// stampbench -experiment readmostly, BenchmarkTMMSGPhased)
// must build on this one declaration, or the certified mapping and the
// measured one drift apart silently. The scan fragment carries the same
// capture shape as publish so its upgrade target matches the capture
// engine exactly.
func PhaseRegimeSpecs() []tm.PhaseSpec {
	return []tm.PhaseSpec{
		tm.PhaseProfile(tm.PhasePublish,
			tm.WithRuntimeCapture(tm.StackAndHeap, tm.StackAndHeap), tm.WithLogKind(tm.LogTree)),
		tm.PhaseProfile(tm.PhaseCursor, tm.WithSkipSharedChecks()),
		tm.PhaseProfile(tm.PhaseScan,
			tm.WithRuntimeCapture(tm.StackAndHeap, tm.StackAndHeap), tm.WithLogKind(tm.LogTree),
			tm.WithReadMostly()),
	}
}

// --- Profile sets from the paper's evaluation ---

// Fig10Configs returns the profiles compared in Fig. 10 and
// Fig. 11(a): the baseline, the three runtime variants (tree log), and
// the compiler optimization.
func Fig10Configs() []tm.Profile {
	return []tm.Profile{
		tm.Baseline(),
		tm.RuntimeAll(tm.LogTree),
		tm.RuntimeWrite(tm.LogTree),
		tm.RuntimeHeapWrite(tm.LogTree),
		tm.CompilerElision(),
	}
}

// Fig11bConfigs returns the profiles of Fig. 11(b): heap-only
// write-barrier runtime checks under each log implementation, plus the
// compiler.
func Fig11bConfigs() []tm.Profile {
	return []tm.Profile{
		tm.Baseline(),
		tm.RuntimeHeapWrite(tm.LogTree),
		tm.RuntimeHeapWrite(tm.LogArray),
		tm.RuntimeHeapWrite(tm.LogFilter),
		tm.CompilerElision(),
	}
}

// Table1Configs returns the profiles of Table 1 / Table 2: baseline,
// the three full runtime variants, and the compiler.
func Table1Configs() []tm.Profile {
	return []tm.Profile{
		tm.Baseline(),
		tm.RuntimeAll(tm.LogTree),
		tm.RuntimeAll(tm.LogArray),
		tm.RuntimeAll(tm.LogFilter),
		tm.CompilerElision(),
	}
}

// Benches returns the STAMP roster in the paper's Table 1 order.
func Benches() []string {
	return []string{
		"bayes", "genome", "intruder", "kmeans-high", "kmeans-low",
		"labyrinth", "ssca2", "vacation-high", "vacation-low", "yada",
	}
}

// AllWorkloads returns every workload registered in this process: the
// STAMP roster first, in the paper's order, then any other registered
// scenarios sorted by name. The bench matrix and report tables iterate
// this, so external scenario packages show up with zero special-casing.
func AllWorkloads() []string {
	stampSet := make(map[string]bool)
	names := make([]string, 0, len(tm.Workloads()))
	for _, b := range Benches() {
		stampSet[b] = true
	}
	registered := make(map[string]bool)
	for _, b := range tm.Workloads() {
		registered[b] = true
	}
	for _, b := range Benches() {
		if registered[b] {
			names = append(names, b)
		}
	}
	for _, b := range tm.Workloads() { // already sorted
		if !stampSet[b] {
			names = append(names, b)
		}
	}
	return names
}
