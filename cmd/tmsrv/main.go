// Command tmsrv measures the serving front-end (tm/serve): an
// open-loop Poisson client population offers load to a worker pool
// that merges compatible requests into single transactions
// (application-side transaction merging), and the harness prints the
// service-time distribution — p50/p95/p99, achieved requests/sec, and
// the failure count — as a text table with one row per point of a
// merge-width × worker-count × offered-load sweep.
//
// Merging amortizes per-transaction commit work across requests and
// assembles all replies in one captured stack block, whose writes the
// runtime elides (the paper's captured-memory analysis).
//
// Usage:
//
//	tmsrv -list                              # registered backends
//	tmsrv -backend srv-tmkv                  # default sweep
//	tmsrv -backend srv-tmkv-read             # scan-heavy read mix, one engine
//	tmsrv -backend all -mergewidths 1,4,8 -rates 100000,peak
//	tmsrv -workers 1,4 -requests 8192 -stats # counters on (non-perf build)
//
// Every point runs one fixed engine per profile and a fixed merge width.
// The served read mix with and without the per-phase engine declaration
// (scan-shaped batches on the read-mostly engine) is an arm of
// stampbench -experiment readmostly.
//
// Nothing here gates anything. The merged-vs-unmerged question at one
// worker is the rig's (bash benchmark/run.sh -workload kv-serve:
// batcher.merge_ratio, serve.open_merge_ratio, serve.open_p99_us); the
// multi-worker grid has no rig cell yet — it goes with ROADMAP 1(b).
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
	"repro/tm/serve"

	_ "repro/internal/scenarios/tmkv"
	_ "repro/internal/scenarios/tmmsg"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main behind a seam the tests can drive: it parses args, prints
// the latency table to stdout, and returns the exit status (2 for an
// unparsable command line, 1 for a bad flag value or a failed sweep).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tmsrv", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list registered serve backends and exit")
	backendFlag := fs.String("backend", "all", "comma-separated serve backend names or 'all'")
	profileFlag := fs.String("profile", "runtime", "optimization profile: baseline|runtime|compiler")
	stats := fs.Bool("stats", false, "keep per-access counters on (skip perf mode)")
	workersFlag := fs.String("workers", "", "comma-separated worker-pool sizes (default: machine-sized)")
	widthsFlag := fs.String("mergewidths", "1,4,8", "comma-separated merge widths (1 = no merging)")
	ratesFlag := fs.String("rates", "peak", "comma-separated offered loads in requests/sec; 'peak' or 0 = unpaced")
	requests := fs.Int("requests", 1<<14, "requests per sweep point")
	clients := fs.Int("clients", 8, "open-loop client goroutines")
	seed := fs.Uint64("seed", 1, "seed for interarrivals and the request stream")
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		for _, b := range serve.Backends() {
			fmt.Fprintf(tw, "%s\t%s\n", b, serve.Description(b))
		}
		tw.Flush()
		return 0
	}

	backends := serve.Backends()
	if *backendFlag != "all" {
		backends = strings.Split(*backendFlag, ",")
	}
	profile, err := profileFor(*profileFlag, *stats)
	var workers, widths []int
	var rates []float64
	if err == nil {
		workers, err = parseInts(*workersFlag, "workers")
	}
	if err == nil {
		widths, err = parseInts(*widthsFlag, "mergewidths")
	}
	if err == nil {
		rates, err = parseRates(*ratesFlag)
	}
	if len(workers) == 0 {
		workers = bench.DefaultThreadCounts()
	}
	if err == nil {
		err = sweep(stdout, backends, profile, workers, widths, rates, *requests, *clients, *seed)
	}
	if err != nil {
		fmt.Fprintln(stderr, "tmsrv:", err)
		return 1
	}
	return 0
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(fs.Output(),
		`tmsrv: open-loop latency sweeps over the served transactional backends.

An open-loop Poisson client population offers load to a worker pool
that merges compatible requests into single transactions; each sweep
point (backend x workers x merge width x offered load) prints
p50/p95/p99 service time, achieved requests/sec, the merge ratio and
the fallback and failure counts. Latency is measured from each
request's *scheduled* arrival, so queueing delay behind a stall is
charged, never omitted.

Registered backends (tmsrv -list for descriptions):
`)
	for _, b := range serve.Backends() {
		fmt.Fprintf(fs.Output(), "  %s\n", b)
	}
	fmt.Fprintf(fs.Output(), "\nFlags:\n")
	fs.PrintDefaults()
}

func profileFor(name string, stats bool) (tm.Profile, error) {
	var p tm.Profile
	switch name {
	case "baseline":
		p = tm.Baseline()
	case "runtime":
		p = tm.RuntimeAll(tm.LogTree)
	case "compiler":
		p = tm.CompilerElision()
	default:
		return tm.Profile{}, fmt.Errorf("unknown profile %q (want baseline|runtime|compiler)", name)
	}
	if !stats {
		p = p.Perf()
	}
	return p, nil
}

func parseInts(s, what string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -%s entry %q", what, part)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "peak" {
			out = append(out, 0)
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("bad -rates entry %q (want a rate in req/s or 'peak')", part)
		}
		out = append(out, r)
	}
	return out, nil
}

// sweep measures every point of the grid and writes the latency table.
func sweep(w io.Writer, backends []string, p tm.Profile, workers, widths []int, rates []float64, requests, clients int, seed uint64) error {
	var all []bench.Result
	for _, be := range backends {
		for _, nw := range workers {
			for _, mw := range widths {
				for _, rate := range rates {
					res, err := bench.RunOpenLoop(bench.OpenLoopSpec{
						Backend:    be,
						Profile:    p,
						Workers:    nw,
						MergeWidth: mw,
						Clients:    clients,
						Rate:       rate,
						Requests:   requests,
						Seed:       seed,
					})
					if err != nil {
						return err
					}
					all = append(all, res)
				}
			}
		}
	}
	bench.WriteLatencyTable(w, all)
	return nil
}
