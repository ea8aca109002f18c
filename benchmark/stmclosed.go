package main

import (
	"fmt"
	"sort"
	"time"

	_ "repro/internal/scenarios/tmmsg" // registers tmmsg-pub, tmmsg-sub
	_ "repro/internal/stamp/all"       // registers the STAMP ports
	"repro/tm"
)

// roster is the fixed set of registered workloads one stm-closed round
// runs. It holds both regimes of the paper: tmmsg-pub and vacation-high
// build values in captured memory (elision pays); kmeans-low and yada
// touch none (the capture checks are pure overhead).
var roster = []string{
	"bayes", "genome", "intruder", "kmeans-high", "kmeans-low", "labyrinth",
	"ssca2", "vacation-high", "vacation-low", "yada", "tmmsg-pub", "tmmsg-sub",
}

// Span names of stm-closed.
const (
	spRound uint8 = iota
	spApp
	spSetup
	spRun
	spValidate
)

var stmSpanNames = []string{"round", "app", "setup", "run", "validate"}

// appRun is one application run: set-up, the timed parallel phase, and
// its validation.
type appRun struct {
	setupNs, runNs int64
	stats          tm.Stats
	spaceWords     int
}

// runApp runs one roster application to completion under p. Every
// tm.Workload.Validate and Runtime.Validate runs after the timed part.
func runApp(rep *report, name string, p tm.Profile, T int, rec *recorder, parent int32, idx int32) appRun {
	w, err := tm.NewWorkload(name)
	if err != nil {
		fatalf("%v", err)
	}
	settle()
	app := rec.begin(spApp, parent, idx, nowNs())
	t0 := nowNs()
	rt := tm.Open(append(p.Options(), tm.WithMemory(w.MemConfig()))...)
	w.Setup(rt)
	t1 := nowNs()
	rt.ResetStats()
	t2 := nowNs()
	w.Run(rt, T)
	t3 := nowNs()
	rep.attempted++
	if err := w.Validate(rt); err != nil {
		rep.failed++
		rep.gate("%s under %s: %v", name, p.Name(), err)
	}
	rt.Validate() // no leaked ownership record
	t4 := nowNs()
	rec.add(spSetup, app, idx, t0, t1)
	rec.add(spRun, app, idx, t2, t3)
	rec.add(spValidate, app, idx, t3, t4)
	rec.end(app, t4)
	r := appRun{setupNs: t1 - t0, runNs: t3 - t2, stats: rt.Snapshot().Stats, spaceWords: rt.Unwrap().Space().Size()}
	if err := rt.Close(); err != nil {
		fatalf("closing %s: %v", name, err)
	}
	return r
}

// pass is one run of the whole roster under one profile.
type pass struct {
	apps []appRun // roster order
}

func (p pass) sum(f func(appRun) int64) float64 {
	var t int64
	for _, a := range p.apps {
		t += f(a)
	}
	return float64(t)
}

func runPass(rep *report, p tm.Profile, T int, rec *recorder, round int32) pass {
	var out pass
	for i, name := range roster {
		out.apps = append(out.apps, runApp(rep, name, p, T, rec, round, int32(i)))
	}
	return out
}

// runSTMClosed is the stm-closed workload: rounds of the roster under
// the baseline and the capture profile, alternating which goes first.
// The roster's inputs are the registered workloads' own fixed seeds;
// -seed only picks the profile that leads the first round.
//
// An operation of this workload is one application run. The first round
// is warm-up (the process's first touch of its heap) and is excluded.
func runSTMClosed(o options, sz sizes, rep *report) *recorder {
	T := threads()
	var rec *recorder
	reserve := time.Duration(0)
	if o.trace {
		rec = newRecorder(8*len(roster)*(sz.maxReps+2), stmSpanNames...)
		reserve = traceReserve(sz, false) + 2*time.Second
	}
	b := newBudget(o, sz, reserve)
	var capture, base []pass
	var traced []bool // per round: were spans recorded
	for i := 0; b.more(); i++ {
		t0 := time.Now()
		// A traced run records spans on every second round; the others
		// run with recording off, so the difference is the tracing cost.
		r := rec
		if i%2 == 1 {
			r = nil
		}
		traced = append(traced, r != nil)
		round := r.begin(spRound, -1, int32(i), nowNs())
		if (i+int(o.seed))%2 == 0 {
			capture = append(capture, runPass(rep, captureProfile(), T, r, round))
			base = append(base, runPass(rep, baselineProfile(), T, r, round))
		} else {
			base = append(base, runPass(rep, baselineProfile(), T, r, round))
			capture = append(capture, runPass(rep, captureProfile(), T, r, round))
		}
		r.end(round, nowNs())
		b.took(time.Since(t0))
	}
	rounds := len(capture)
	if rounds > 1 { // drop the warm-up round
		capture, base, traced = capture[1:], base[1:], traced[1:]
	}

	// Per application: median Run time under each profile.
	capMs := make([]float64, len(roster))
	speedup := make([]float64, len(roster))
	for a := range roster {
		var c, bl []float64
		for r := range capture {
			c = append(c, float64(capture[r].apps[a].runNs)/1e6)
			bl = append(bl, float64(base[r].apps[a].runNs)/1e6)
		}
		capMs[a] = median(c)
		speedup[a] = median(bl) / capMs[a]
	}
	runSeconds := func(p pass) float64 { return p.sum(func(a appRun) int64 { return a.runNs }) / 1e9 }
	opsPerSec := func(p pass) float64 { return float64(len(roster)) / runSeconds(p) }

	sorted := append([]float64(nil), capMs...)
	sort.Float64s(sorted)
	rep.e2e["setup_s"] = medianBy(capture, func(p pass) float64 { return p.sum(func(a appRun) int64 { return a.setupNs }) / 1e9 })
	rep.e2e["ops_per_s"] = medianBy(capture, opsPerSec)
	rep.e2e["lat_p50_us"] = median(capMs) * 1e3
	rep.e2e["lat_p99_us"] = sorted[len(sorted)-1] * 1e3
	rep.e2e["capture_speedup"] = geomean(speedup)
	rep.note("stm-closed: T=%d threads, %d rounds of %d applications × 2 profiles (first round is warm-up); an operation is one application run; lat_p50_us is the median application's Run time and lat_p99_us the slowest application's (12 distinct operations support no higher percentile)",
		T, rounds, len(roster))
	line := "per-app capture ms (speedup):"
	for a, name := range roster {
		line += fmt.Sprintf(" %s %.1f (%.2f)", name, capMs[a], speedup[a])
	}
	rep.note("%s", line)
	if !o.trace {
		rep.e2e["peak_rss_mb"] = peakRSSMB()
		return nil
	}

	L := rep.layer
	zeroLayer(L, o.layerNames)
	for a, name := range roster {
		L["app."+name+".ms"] = capMs[a]
		L["app."+name+".speedup"] = speedup[a]
	}
	// Tracing overhead: rounds with recording off against rounds with it on.
	var on, off []float64
	for i, p := range capture {
		if traced[i] {
			on = append(on, opsPerSec(p))
		} else {
			off = append(off, opsPerSec(p))
		}
	}
	if len(on) > 0 && len(off) > 0 {
		L["trace.overhead_pct"] = 100 * (median(off) - median(on)) / median(off)
	}

	// Lifecycle counters and commits, summed over a capture pass.
	sumStats := func(p pass) tm.Stats {
		var s tm.Stats
		for _, a := range p.apps {
			st := a.stats
			s.Add(&st)
		}
		return s
	}
	commits := medianBy(capture, func(p pass) float64 { return float64(sumStats(p).Commits) })
	L["stm.commits_per_s"] = medianBy(capture, func(p pass) float64 { return float64(sumStats(p).Commits) / runSeconds(p) })
	L["stm.aborts_per_commit"] = medianBy(capture, func(p pass) float64 { s := sumStats(p); return s.AbortRatio() })
	L["stm.waits_per_commit"] = medianBy(capture, func(p pass) float64 {
		s := sumStats(p)
		return float64(s.Waits) / float64(max(1, s.Commits))
	})
	L["stm.wait_ns_per_op"] = medianBy(capture, func(p pass) float64 {
		s := sumStats(p)
		return float64(s.WaitNs) / float64(max(1, s.Commits))
	})
	space := 0
	for _, a := range capture[0].apps {
		space = max(space, a.spaceWords)
	}
	L["mem.space_mb"] = float64(space) * 8 / 1e6

	// Counted pass: one roster pass under the non-perf capture profile.
	// Here the ledger's operation is one committed transaction.
	counted := sumStats(runPass(rep, countedProfile(), T, nil, -1))
	accessMetrics(L, counted, float64(max(1, counted.Commits)))
	pr := runProbes(o, sz, L)
	nsPerCommit := float64(T) * 1e9 * medianBy(capture, runSeconds) / commits
	stmLedger(L, nsPerCommit, counted, pr, 1+L["stm.aborts_per_commit"])
	return rec
}
