package harness

// Open-loop latency measurement over the serving front-end (tm/serve):
// where Run times a fixed op count executed flat-out, RunOpenLoop
// offers load at a configured rate from a Poisson client population
// and reports the service-time distribution — the latency view of the
// same captured-memory story the throughput harness tells. Merging
// compatible requests into one transaction (tm.Batcher) amortizes
// commit work and assembles replies in captured stack blocks, so the
// p95/p99 columns and the elision counters move together.
//
// No rig cell yet — goes with ROADMAP 1(b): benchmark/ measures the
// served tier with its own load generator (kv-serve), but runs neither
// more than one serve worker nor a phase-hinted runtime, so this file
// stays as the text-table A/B behind cmd/tmsrv and stampbench
// -experiment readmostly.

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"

	"repro/tm"
	"repro/tm/serve"
)

// OpenLoopSpec configures one open-loop measurement point: a serve
// backend under a profile, a server shape, and an offered load.
type OpenLoopSpec struct {
	Backend    string     // serve registry name ("srv-tmkv", "srv-tmmsg")
	Profile    tm.Profile // runtime options; memory comes from the backend
	Workers    int        // server worker pool; <1 = NumCPU
	MergeWidth int        // max requests merged per transaction; <1 = 1
	Clients    int        // issuing goroutines; <1 = 4
	Rate       float64    // offered requests/sec; <=0 = unpaced (peak stress)
	Requests   int        // total requests; <1 = 1
	Seed       uint64     // drives interarrivals and the request stream

	// Phases overlays the canonical per-phase engine declaration
	// (PhaseRegimeSpecs) on the profile — the hinted arm of the
	// hinted/single-engine A/B.
	Phases bool
}

// LatencyStats is the open-loop block of a result: the service-time
// quantiles, the offered and achieved load, and the merge counters
// that explain them. All quantiles are nearest-rank over the full
// per-request population (latency measured from *scheduled* arrival,
// so queueing delay behind a stall is charged, not omitted).
type LatencyStats struct {
	OfferedRPS    float64 // 0 = unpaced
	AchievedRPS   float64 // completed / wall time
	P50Ns         int64
	P95Ns         int64
	P99Ns         int64
	MaxNs         int64
	Requests      int
	Aborted       int // Apply refused (after fallback)
	MergedReplies int // served from merged transactions
	MergeWidth    int
	Clients       int
	MergeRatio    float64 // requests per transaction
	Fallbacks     uint64
	Txns          uint64
}

// RunOpenLoop builds a server over the named backend, drives the
// open-loop population to completion, validates the runtime, and
// returns a Result whose Latency block is populated. The Config string
// encodes profile, merge width, and offered load, so every sweep point
// is a distinct row of the latency table.
func RunOpenLoop(spec OpenLoopSpec) (Result, error) {
	if spec.Workers < 1 {
		spec.Workers = runtime.NumCPU()
	}
	if spec.MergeWidth < 1 {
		spec.MergeWidth = 1
	}
	if spec.Clients < 1 {
		spec.Clients = 4
	}
	if spec.Requests < 1 {
		spec.Requests = 1
	}
	res := Result{Bench: spec.Backend, Config: openLoopConfig(spec), Threads: spec.Workers}
	be, err := serve.New(spec.Backend)
	if err != nil {
		return res, err
	}
	profile := spec.Profile
	if spec.Phases {
		profile = profile.With(tm.WithPhases(PhaseRegimeSpecs()...))
	}
	srv := serve.NewServer(be, serve.Config{
		Workers:    spec.Workers,
		MergeWidth: spec.MergeWidth,
		Requests:   spec.Requests,
		Options:    profile.Options(),
	})
	rt := srv.Runtime()
	res.Engine = rt.Engine()
	rt.ResetStats() // report the served phase only, not Setup's preload
	srv.Start()
	olr := srv.RunOpenLoop(serve.OpenLoop{
		Clients:  spec.Clients,
		Rate:     spec.Rate,
		Requests: spec.Requests,
		Seed:     spec.Seed,
	})
	if err := srv.Stop(); err != nil {
		return res, fmt.Errorf("open-loop %s: stopping server: %w", spec.Backend, err)
	}
	// Snapshot after the workers joined but before Validate, like Run:
	// validation must not leak into the reported counters. Counter reads
	// stay valid after Stop's runtime Close.
	snap := rt.Snapshot()
	res.Times = []time.Duration{time.Duration(olr.ElapsedNs)}
	res.Stats = snap.Stats
	if len(rt.Phases()) > 0 {
		res.PhaseStats = snap.Phases
	}
	rt.Validate() // panics on a leaked orec — merged txns must release all
	res.Latency = newLatencyStats(spec, olr, srv.BatchStats())
	return res, nil
}

func openLoopConfig(spec OpenLoopSpec) string {
	load := "peak"
	if spec.Rate > 0 {
		// Fixed notation, not %g: a 1e6 rate must read "1000000rps",
		// never "1e+06rps" — the '+' is the config string's separator.
		load = strconv.FormatFloat(spec.Rate, 'f', -1, 64) + "rps"
	}
	name := spec.Profile.Name()
	if spec.Phases {
		name += "+phases"
	}
	return fmt.Sprintf("%s+mw%d@%s", name, spec.MergeWidth, load)
}

func newLatencyStats(spec OpenLoopSpec, olr serve.OpenLoopResult, bs tm.BatchStats) *LatencyStats {
	sorted := append([]int64(nil), olr.LatenciesNs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ls := &LatencyStats{
		AchievedRPS:   olr.AchievedRPS(),
		P50Ns:         quantileNs(sorted, 0.50),
		P95Ns:         quantileNs(sorted, 0.95),
		P99Ns:         quantileNs(sorted, 0.99),
		Requests:      olr.Requests,
		Aborted:       olr.Aborted,
		MergedReplies: olr.MergedReplies,
		MergeWidth:    spec.MergeWidth,
		Clients:       spec.Clients,
		MergeRatio:    bs.MergeRatio(),
		Fallbacks:     bs.Fallbacks,
		Txns:          bs.Txns,
	}
	if spec.Rate > 0 {
		ls.OfferedRPS = spec.Rate
	}
	if n := len(sorted); n > 0 {
		ls.MaxNs = sorted[n-1]
	}
	return ls
}

// quantileNs returns the nearest-rank q-quantile of an ascending
// sample: the smallest value with at least q·n observations at or
// below it. No interpolation — a reported p99 is a latency some
// request actually experienced.
func quantileNs(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WriteLatencyTable prints the open-loop results, one row per
// measurement point. Results without a Latency block are skipped. The
// aborted column is the failure count (a refused request is a failed
// one).
func WriteLatencyTable(w io.Writer, results []Result) {
	fmt.Fprintln(w, "Open-loop latency (per-request, from scheduled arrival)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tconfig\tengine\tworkers\toffered\tachieved\tp50\tp95\tp99\tmerge\tfallbacks\taborted")
	for _, r := range results {
		l := r.Latency
		if l == nil {
			continue
		}
		offered := "peak"
		if l.OfferedRPS > 0 {
			offered = fmt.Sprintf("%.0f/s", l.OfferedRPS)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%.0f/s\t%v\t%v\t%v\t%.2fx\t%d\t%d\n",
			r.Bench, r.Config, r.Engine, r.Threads, offered, l.AchievedRPS,
			time.Duration(l.P50Ns).Round(time.Microsecond),
			time.Duration(l.P95Ns).Round(time.Microsecond),
			time.Duration(l.P99Ns).Round(time.Microsecond),
			l.MergeRatio, l.Fallbacks, l.Aborted)
	}
	tw.Flush()
}
