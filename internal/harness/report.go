package harness

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"repro/tm"
)

// Breakdown is the paper's Fig. 8 classification of the compiler-
// inserted barriers of one benchmark: captured heap, captured stack,
// required (hand-instrumented) and other (not required but not
// captured), as fractions of the total.
type Breakdown struct {
	Bench             string
	Total             uint64
	CapHeap, CapStack float64
	Required, Other   float64
}

func breakdown(bench string, total, capHeap, capStack, manual uint64) Breakdown {
	t := float64(total)
	if t == 0 {
		return Breakdown{Bench: bench}
	}
	b := Breakdown{
		Bench:    bench,
		Total:    total,
		CapHeap:  float64(capHeap) / t,
		CapStack: float64(capStack) / t,
		Required: float64(manual) / t,
	}
	// The paper estimates "other not required" as the remainder after
	// captured and required accesses (Sec. 4.1).
	b.Other = 1 - b.CapHeap - b.CapStack - b.Required
	if b.Other < 0 {
		b.Other = 0
	}
	return b
}

// measure runs one fresh instance of the workload single-threaded
// under the profile and returns the statistics of the timed phase.
// The snapshot is taken before Validate, whose own transactional
// walking would otherwise pollute the counts.
func measure(bench string, p tm.Profile) (tm.Stats, error) {
	w, err := tm.NewWorkload(bench)
	if err != nil {
		return tm.Stats{}, err
	}
	rt := tm.Open(append(p.Options(), tm.WithMemory(w.MemConfig()))...)
	w.Setup(rt)
	rt.ResetStats() // count the timed phase only, as in Sec. 4.1
	w.Run(rt, 1)
	s := rt.Snapshot().Stats
	if err := w.Validate(rt); err != nil {
		return tm.Stats{}, fmt.Errorf("%s [%s]: %w", bench, p.Name(), err)
	}
	return s, nil
}

// MeasureBreakdown runs bench single-threaded in counting mode and
// returns the read, write, and combined classifications (Fig. 8 a/b/c).
func MeasureBreakdown(bench string) (read, write, all Breakdown, err error) {
	s, err := measure(bench, tm.Counting())
	if err != nil {
		return read, write, all, err
	}
	read = breakdown(bench, s.ReadTotal, s.ReadCapHeap, s.ReadCapStack, s.ReadManual)
	write = breakdown(bench, s.WriteTotal, s.WriteCapHeap, s.WriteCapStack, s.WriteManual)
	all = breakdown(bench, s.ReadTotal+s.WriteTotal,
		s.ReadCapHeap+s.WriteCapHeap, s.ReadCapStack+s.WriteCapStack,
		s.ReadManual+s.WriteManual)
	return read, write, all, nil
}

// WriteFig8 prints the Fig. 8 table for the given access class
// ("reads", "writes" or "all").
func WriteFig8(w io.Writer, class string, rows []Breakdown) {
	fmt.Fprintf(w, "Figure 8: breakdown of compiler-inserted STM barriers (%s)\n", class)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tbarriers\ttx-heap\ttx-stack\tother\trequired")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
			r.Bench, r.Total, 100*r.CapHeap, 100*r.CapStack, 100*r.Other, 100*r.Required)
	}
	tw.Flush()
}

// Removal is one benchmark's Fig. 9 row: the portion of read and write
// barriers removed by each capture-analysis technique.
type Removal struct {
	Bench       string
	Read, Write map[string]float64 // technique → fraction removed
}

// Fig9Techniques lists the technique columns of Fig. 9.
func Fig9Techniques() []string { return []string{"tree", "compiler"} }

// MeasureRemoval runs bench single-threaded under each technique and
// reports the portion of barriers each one removed.
func MeasureRemoval(bench string) (Removal, error) {
	rm := Removal{Bench: bench, Read: map[string]float64{}, Write: map[string]float64{}}
	profiles := map[string]tm.Profile{
		"tree":     tm.RuntimeAll(tm.LogTree),
		"compiler": tm.CompilerElision(),
	}
	for _, tech := range Fig9Techniques() {
		s, err := measure(bench, profiles[tech])
		if err != nil {
			return rm, err
		}
		if s.ReadTotal > 0 {
			rm.Read[tech] = float64(s.ReadElided()) / float64(s.ReadTotal)
		}
		if s.WriteTotal > 0 {
			rm.Write[tech] = float64(s.WriteElided()) / float64(s.WriteTotal)
		}
	}
	return rm, nil
}

// WriteFig9 prints the Fig. 9 table for reads or writes.
func WriteFig9(w io.Writer, class string, rows []Removal) {
	fmt.Fprintf(w, "Figure 9: portion of %s barriers removed by technique\n", class)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "benchmark")
	for _, t := range Fig9Techniques() {
		fmt.Fprintf(tw, "\t%s", t)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		m := r.Read
		if class == "writes" {
			m = r.Write
		}
		fmt.Fprintf(tw, "%s", r.Bench)
		for _, t := range Fig9Techniques() {
			fmt.Fprintf(tw, "\t%.1f%%", 100*m[t])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// CaptureStat is one row of the capture/elision report: the barrier
// counters of a single-threaded run of one workload under one profile,
// read before validation so the row covers the timed phase only.
type CaptureStat struct {
	Bench, Config         string
	Commits               uint64
	ReadTotal, WriteTotal uint64
	ElStatic              uint64 // statically elided (compiler)
	ElStack, ElHeap       uint64 // runtime-captured, by mechanism
	ElPriv                uint64 // annotated thread-private
	SkipShared            uint64 // definitely-shared check bypasses
	Full                  uint64 // full barriers executed
}

// CaptureConfigs returns the profile set of the capture report: each
// elision mechanism alone, both combined, and the definitely-shared
// extension on top of the runtime checks.
func CaptureConfigs() []tm.Profile {
	return []tm.Profile{
		tm.Baseline(),
		tm.RuntimeAll(tm.LogTree),
		tm.CompilerElision(),
		tm.CompilerElision().With(
			tm.WithRuntimeCapture(tm.StackAndHeap, tm.StackAndHeap)).Named("compiler+runtime"),
		tm.RuntimeAll(tm.LogTree).With(tm.WithSkipSharedChecks()).Named("runtime+skipshared"),
	}
}

// MeasureCaptureStats runs the workload single-threaded under each
// profile and returns one CaptureStat row per profile.
func MeasureCaptureStats(bench string, profiles []tm.Profile) ([]CaptureStat, error) {
	rows := make([]CaptureStat, 0, len(profiles))
	for _, p := range profiles {
		s, err := measure(bench, p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CaptureStat{
			Bench: bench, Config: p.Name(),
			Commits:   s.Commits,
			ReadTotal: s.ReadTotal, WriteTotal: s.WriteTotal,
			ElStatic:   s.ReadElStatic + s.WriteElStatic,
			ElStack:    s.ReadElStack + s.WriteElStack,
			ElHeap:     s.ReadElHeap + s.WriteElHeap,
			ElPriv:     s.ReadElPriv + s.WriteElPriv,
			SkipShared: s.ReadSkipShared + s.WriteSkipShared,
			Full:       s.ReadFull + s.WriteFull,
		})
	}
	return rows, nil
}

// WriteCaptureStats prints the per-profile capture/elision table of
// one or more workloads.
func WriteCaptureStats(w io.Writer, rows []CaptureStat) {
	fmt.Fprintln(w, "Capture/elision breakdown (single-threaded; barrier counts per mechanism)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tconfig\tcommits\tbarriers\tstatic\tstack\theap\tpriv\tskip-shared\tfull")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Bench, r.Config, r.Commits, r.ReadTotal+r.WriteTotal,
			r.ElStatic, r.ElStack, r.ElHeap, r.ElPriv, r.SkipShared, r.Full)
	}
	tw.Flush()
}

// rowNames returns the benchmark rows of a table in sorted order, so
// externally registered workloads appear alongside the STAMP roster.
func rowNames(rows map[string]map[string]float64) []string {
	names := make([]string, 0, len(rows))
	for b := range rows {
		names = append(names, b)
	}
	sort.Strings(names)
	return names
}

// WriteTable1 prints the abort-to-commit ratios (Table 1).
func WriteTable1(w io.Writer, rows map[string]map[string]float64, configs []string, threads int) {
	fmt.Fprintf(w, "Table 1: abort-to-commit ratio at %d threads\n", threads)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "benchmark")
	for _, c := range configs {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, b := range rowNames(rows) {
		fmt.Fprintf(tw, "%s", b)
		for _, c := range configs {
			fmt.Fprintf(tw, "\t%.2f", rows[b][c])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// WriteTable2 prints the percent relative standard deviations (Table 2).
func WriteTable2(w io.Writer, rows map[string]map[string]float64, configs []string, threads, runs int) {
	fmt.Fprintf(w, "Table 2: %% relative standard deviation at %d threads (%d runs)\n", threads, runs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "benchmark")
	for _, c := range configs {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, b := range rowNames(rows) {
		fmt.Fprintf(tw, "%s", b)
		for _, c := range configs {
			fmt.Fprintf(tw, "\t%.2f", rows[b][c])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// WriteImprovements prints a Fig. 10 / Fig. 11 style table: percent
// improvement over the baseline per benchmark and configuration.
func WriteImprovements(w io.Writer, title string, rows map[string]map[string]float64, configs []string) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "benchmark")
	for _, c := range configs {
		if c == "baseline" {
			continue
		}
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, b := range rowNames(rows) {
		fmt.Fprintf(tw, "%s", b)
		for _, c := range configs {
			if c == "baseline" {
				continue
			}
			fmt.Fprintf(tw, "\t%+.1f%%", rows[b][c])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// WriteSweep prints a scaling-curve table: one row per (workload,
// profile, thread count) point of a Sweep or SweepMatrix.
func WriteSweep(w io.Writer, results []Result) {
	fmt.Fprintln(w, "Thread sweep (median of runs)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tconfig\tengine\tthreads\tmedian\tmin\taborts/commit")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%v\t%v\t%.2f\n",
			r.Bench, r.Config, r.Engine, r.Threads,
			r.Median().Round(time.Microsecond), r.Min().Round(time.Microsecond),
			r.Stats.AbortRatio())
	}
	tw.Flush()
}
