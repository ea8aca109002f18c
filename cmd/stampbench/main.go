// Command stampbench regenerates the performance experiments of the
// paper's evaluation (Sec. 4) as text tables: Table 1 (abort-to-commit
// ratios), Table 2 (run-to-run variation), Fig. 10 (single-thread
// improvement), and Fig. 11(a) (16-thread improvement; with one
// allocation log, the paper's Fig. 11(b) is its heap-write column). It is
// written entirely against the public tm / tm/bench API; workloads are
// resolved through the tm registry, so externally registered scenarios
// work with the -bench flag too.
//
// The matrix covers every workload registered in the tm registry: the
// STAMP roster plus the in-tree scenario packs (tmkv, tmmsg) and
// anything an external package registers.
//
// Usage:
//
//	stampbench -experiment list             # registered workloads + descriptions
//	stampbench -experiment fig10            # 1-thread improvements
//	stampbench -experiment fig11a -threads 16
//	stampbench -experiment table1 -threads 16
//	stampbench -experiment table2 -threads 16 -runs 5
//	stampbench -experiment capture -bench tmkv   # per-mechanism elision counts
//	stampbench -experiment readmostly -threadlist 1,4   # phase hints on vs. off
//
// Nothing here gates anything: bash benchmark/run.sh is the measurement
// a performance claim is judged by, and fig10/fig11a -threads N print
// any single scaling point. The readmostly experiment is an A/B table
// for a mechanism with no rig cell yet — it goes with ROADMAP 1(b).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/tm"
	"repro/tm/bench"

	_ "repro/internal/scenarios/tmkv"
	_ "repro/internal/scenarios/tmmsg"
	_ "repro/internal/stamp/all"
)

// experiments is the -experiment usage string: every name in it has a
// case in run, and anything else is refused with this list.
const experiments = "list|table1|table2|fig10|fig11a|capture|readmostly"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main behind a seam the tests can drive: it parses args, prints
// the experiment's table to stdout, and returns the exit status (2 for
// an unparsable command line, 1 for an unknown or failed experiment).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stampbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("experiment", "fig10", experiments)
	threads := fs.Int("threads", 1, "worker threads for the parallel phase")
	runs := fs.Int("runs", 3, "repetitions per data point")
	benchFlag := fs.String("bench", "all", "comma-separated workload names or 'all'")
	threadList := fs.String("threadlist", "", "comma-separated thread counts for -experiment readmostly (default: 1,4)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	benches := bench.AllWorkloads()
	if *benchFlag != "all" {
		benches = strings.Split(*benchFlag, ",")
	}

	var err error
	switch *exp {
	case "list":
		// One line per workload with its registered description, so a CI
		// log of the matrix is self-explaining.
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		for _, b := range benches {
			fmt.Fprintf(tw, "%s\t%s\n", b, tm.WorkloadDescription(b))
		}
		tw.Flush()
	case "capture":
		err = capture(stdout, benches)
	case "table1":
		err = tables(stdout, benches, *threads, *runs, true)
	case "table2":
		err = tables(stdout, benches, *threads, *runs, false)
	case "fig10":
		err = improvements(stdout, benches, bench.Fig10Configs(), 1, *runs,
			"Figure 10: % improvement over baseline at 1 thread")
	case "fig11a":
		err = improvements(stdout, benches, bench.Fig10Configs(), *threads, *runs,
			fmt.Sprintf("Figure 11(a): %% improvement over baseline at %d threads", *threads))
	case "readmostly":
		var counts []int
		if counts, err = parseThreadList(*threadList); err == nil {
			err = readMostlySweep(stdout, counts, *runs)
		}
	default:
		err = fmt.Errorf("unknown experiment %q (want %s)", *exp, experiments)
	}
	if err != nil {
		fmt.Fprintln(stderr, "stampbench:", err)
		return 1
	}
	return 0
}

func parseThreadList(s string) ([]int, error) {
	if s == "" {
		return nil, nil // readMostlySweep's default
	}
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -threadlist entry %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// capture prints the per-mechanism capture/elision table for each
// workload: which barriers the runtime checks, the compiler, and the
// definitely-shared extension removed.
func capture(w io.Writer, benches []string) error {
	for _, b := range benches {
		rows, err := bench.MeasureCaptureStats(b, bench.CaptureConfigs())
		if err != nil {
			return err
		}
		bench.WriteCaptureStats(w, rows)
		fmt.Fprintln(w)
	}
	return nil
}

// tables prints Table 1 (ratio=true) or Table 2 (ratio=false).
func tables(w io.Writer, benches []string, threads, runs int, ratio bool) error {
	profiles := bench.Table1Configs()
	rows := map[string]map[string]float64{}
	var names []string
	for _, p := range profiles {
		names = append(names, p.Name())
	}
	for _, b := range benches {
		rows[b] = map[string]float64{}
		for _, p := range profiles {
			res, err := bench.Run(b, p, threads, runs)
			if err != nil {
				return err
			}
			if ratio {
				rows[b][p.Name()] = res.Stats.AbortRatio()
			} else {
				rows[b][p.Name()] = res.RelStdDev()
			}
		}
	}
	if ratio {
		bench.WriteTable1(w, rows, names, threads)
	} else {
		bench.WriteTable2(w, rows, names, threads, runs)
	}
	return nil
}

// improvements prints a Fig. 10/11-style improvement table.
func improvements(w io.Writer, benches []string, profiles []tm.Profile, threads, runs int, title string) error {
	rows := map[string]map[string]float64{}
	var names []string
	for _, p := range profiles {
		names = append(names, p.Name())
	}
	for _, b := range benches {
		rows[b] = map[string]float64{}
		// Timing runs use perf mode: no per-access counters, like the
		// paper's performance builds.
		perf := make([]tm.Profile, len(profiles))
		for i, p := range profiles {
			perf[i] = p.Perf()
		}
		results, err := bench.RunMatrix(b, perf, threads, runs)
		if err != nil {
			return err
		}
		for i, p := range profiles[1:] {
			rows[b][p.Name()] = bench.Improvement(results[0], results[i+1])
		}
	}
	bench.WriteImprovements(w, title, rows, names)
	return nil
}

// sweepProfiles are the read-mostly A/B's configurations: the baseline
// and the two headline optimizations, in perf mode like the paper's
// timing builds, so the specialized engines are what gets measured —
// each followed by its phase-hinted variant (publish-shaped
// transactions on the capture-checking engines, cursor-shaped ones on
// the definitely-shared bypass, scan-shaped ones on the read-mostly
// engine), so the table carries the hints-off and hints-on rows side by
// side.
func sweepProfiles() []tm.Profile {
	base := []tm.Profile{
		tm.Baseline().Perf(),
		tm.RuntimeAll(tm.LogTree).Perf(),
		tm.CompilerElision().Perf(),
	}
	out := base
	for _, p := range base {
		out = append(out, p.With(tm.WithPhases(bench.PhaseRegimeSpecs()...)).Named(p.Name()+"+phases"))
	}
	return out
}

// readMostlyBenches are the read-dominated workloads the read-mostly
// engine targets: the 84%-read KV mix and the backlog-scan-heavy
// message mix. Both drivers hint tm.PhaseScan on their read work, so
// the "+phases" arms of the sweep run those transactions on the
// read-mostly engine while the unphased arms are the status quo to
// beat.
var readMostlyBenches = []string{"tmkv-read", "tmmsg-lag"}

// readMostlySweep is the focused evaluation of the read-mostly barrier
// engine: the standard sweep profiles with and without the canonical
// phase declaration over the read-dominated workloads, plus open-loop
// latency rows for the scan-phased served KV read mix with and without
// the declaration, so the output holds both sides of every A/B. No rig
// cell yet — goes with ROADMAP 1(b) (kv-scan).
func readMostlySweep(w io.Writer, counts []int, runs int) error {
	if len(counts) == 0 {
		counts = []int{1, 4} // the win condition's two contention points
	}
	var all []bench.Result
	for _, b := range readMostlyBenches {
		results, err := bench.SweepMatrix(b, sweepProfiles(), counts, runs)
		if err != nil {
			return err
		}
		all = append(all, results...)
	}
	// Served side: the same engine question under open-loop load. The
	// srv-tmkv-read backend tags its items with phases, so the Phases
	// arm runs scan-shaped batches on the read-mostly engine while the
	// plain arm commits everything through one engine.
	for _, phased := range []bool{false, true} {
		res, err := bench.RunOpenLoop(bench.OpenLoopSpec{
			Backend:    "srv-tmkv-read",
			Profile:    tm.RuntimeAll(tm.LogTree).Perf(),
			Workers:    2,
			MergeWidth: 8,
			Clients:    4,
			Requests:   4096,
			Seed:       17,
			Phases:     phased,
		})
		if err != nil {
			return err
		}
		all = append(all, res)
	}
	bench.WriteSweep(w, all)
	bench.WriteLatencyTable(w, all)
	return nil
}
