// Package bench is the public face of the experiment harness: it runs
// workloads registered with tm.RegisterWorkload under tm option
// profiles, repeats and times them, and formats the tables and figure
// series of the paper's evaluation. External scenario packages get the
// same matrix, statistics, and reports as the in-tree STAMP ports:
//
//	tm.RegisterWorkload("mine", func() tm.Workload { return newMine() })
//	res, err := bench.Run("mine", tm.RuntimeAll(tm.LogTree), 8, 3)
//
// Everything here prints text tables for a person to read; nothing is
// gated on them. The measurement every performance claim is judged by
// is the rig: bash benchmark/run.sh (see benchmark/README.md).
//
// The implementation lives in internal/harness; this package only
// re-exports the surface external code needs.
package bench

import (
	"io"

	"repro/internal/harness"
	"repro/tm"
)

// Result is the outcome of running one workload under one profile at
// one thread count. It carries the per-run times, the statistics of
// the last run, and the aggregate helpers Mean, Median, Min, and
// RelStdDev.
type Result = harness.Result

// Breakdown is a Fig. 8 barrier classification row.
type Breakdown = harness.Breakdown

// Removal is a Fig. 9 barrier-removal row.
type Removal = harness.Removal

// Run executes the workload `runs` times under the profile (fresh
// instance each run; setup and validation excluded from timing).
func Run(workload string, p tm.Profile, threads, runs int) (Result, error) {
	return harness.Run(workload, p, threads, runs)
}

// RunMatrix measures the workload under every profile, interleaved
// round-robin so machine-speed drift biases no configuration.
func RunMatrix(workload string, profiles []tm.Profile, threads, runs int) ([]Result, error) {
	return harness.RunMatrix(workload, profiles, threads, runs)
}

// DefaultThreadCounts returns the machine-sized sweep grid: powers of
// two below the CPU count, then the CPU count itself.
func DefaultThreadCounts() []int { return harness.DefaultThreadCounts() }

// Sweep measures the workload under the profile at each thread count
// (nil = DefaultThreadCounts): one scaling curve.
func Sweep(workload string, p tm.Profile, threadCounts []int, runs int) ([]Result, error) {
	return harness.Sweep(workload, p, threadCounts, runs)
}

// SweepMatrix sweeps every profile and concatenates the curves.
func SweepMatrix(workload string, profiles []tm.Profile, threadCounts []int, runs int) ([]Result, error) {
	return harness.SweepMatrix(workload, profiles, threadCounts, runs)
}

// OpenLoopSpec configures one open-loop latency measurement point: a
// serve backend under a profile, a server shape (workers × merge
// width), and an offered load in requests per second.
type OpenLoopSpec = harness.OpenLoopSpec

// LatencyStats is the open-loop service-time block of a Result:
// nearest-rank p50/p95/p99, offered vs achieved load, and the
// transaction-merging counters that explain them.
type LatencyStats = harness.LatencyStats

// RunOpenLoop drives an open-loop Poisson client population against a
// served backend (tm/serve) and returns a Result whose Latency block
// is populated.
func RunOpenLoop(spec OpenLoopSpec) (Result, error) { return harness.RunOpenLoop(spec) }

// WriteLatencyTable prints the open-loop latency table, including the
// failure count.
func WriteLatencyTable(w io.Writer, results []Result) { harness.WriteLatencyTable(w, results) }

// WriteSweep prints the scaling-curve table.
func WriteSweep(w io.Writer, results []Result) { harness.WriteSweep(w, results) }

// Improvement returns the percent performance improvement of opt over
// base: positive means opt is faster.
func Improvement(base, opt Result) float64 { return harness.Improvement(base, opt) }

// MeasureBreakdown runs the workload single-threaded in counting mode
// and returns the read, write, and combined Fig. 8 classifications.
func MeasureBreakdown(workload string) (read, write, all Breakdown, err error) {
	return harness.MeasureBreakdown(workload)
}

// MeasureRemoval runs the workload single-threaded under each capture
// technique and reports the portion of barriers each one removed.
func MeasureRemoval(workload string) (Removal, error) {
	return harness.MeasureRemoval(workload)
}

// Benches returns the STAMP roster in the paper's Table 1 order.
func Benches() []string { return harness.Benches() }

// AllWorkloads returns every workload registered in this process: the
// STAMP roster first, then other scenarios sorted by name.
func AllWorkloads() []string { return harness.AllWorkloads() }

// CaptureStat is one row of the capture/elision report.
type CaptureStat = harness.CaptureStat

// CaptureConfigs returns the profile set of the capture report: each
// elision mechanism alone, both combined, and the definitely-shared
// extension.
func CaptureConfigs() []tm.Profile { return harness.CaptureConfigs() }

// MeasureCaptureStats runs the workload single-threaded under each
// profile and returns one capture/elision row per profile.
func MeasureCaptureStats(workload string, profiles []tm.Profile) ([]CaptureStat, error) {
	return harness.MeasureCaptureStats(workload, profiles)
}

// WriteCaptureStats prints the capture/elision table.
func WriteCaptureStats(w io.Writer, rows []CaptureStat) {
	harness.WriteCaptureStats(w, rows)
}

// PhaseRegimeSpecs returns the canonical publish/cursor phase
// declaration every phase-hint A/B builds on: publish-shaped
// transactions map to the capture-checking engines, cursor-shaped ones
// to the definitely-shared bypass.
func PhaseRegimeSpecs() []tm.PhaseSpec { return harness.PhaseRegimeSpecs() }

// Fig10Configs returns the profiles compared in Fig. 10 / Fig. 11(a).
func Fig10Configs() []tm.Profile { return harness.Fig10Configs() }

// Table1Configs returns the profiles of Table 1 / Table 2.
func Table1Configs() []tm.Profile { return harness.Table1Configs() }

// WriteTable1 prints the abort-to-commit ratio table.
func WriteTable1(w io.Writer, rows map[string]map[string]float64, configs []string, threads int) {
	harness.WriteTable1(w, rows, configs, threads)
}

// WriteTable2 prints the run-to-run variation table.
func WriteTable2(w io.Writer, rows map[string]map[string]float64, configs []string, threads, runs int) {
	harness.WriteTable2(w, rows, configs, threads, runs)
}

// WriteImprovements prints a Fig. 10 / Fig. 11 style improvement
// table.
func WriteImprovements(w io.Writer, title string, rows map[string]map[string]float64, configs []string) {
	harness.WriteImprovements(w, title, rows, configs)
}

// WriteFig8 prints the Fig. 8 barrier-breakdown table for one access
// class ("reads", "writes" or "all").
func WriteFig8(w io.Writer, class string, rows []Breakdown) {
	harness.WriteFig8(w, class, rows)
}

// WriteFig9 prints the Fig. 9 barrier-removal table for reads or
// writes.
func WriteFig9(w io.Writer, class string, rows []Removal) {
	harness.WriteFig9(w, class, rows)
}
