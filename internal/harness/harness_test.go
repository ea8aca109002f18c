package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/tm"

	_ "repro/internal/stamp/all"
)

func TestRunProducesTimesAndStats(t *testing.T) {
	res, err := Run("ssca2", tm.Baseline(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 2 {
		t.Fatalf("times = %v", res.Times)
	}
	if res.Stats.Commits == 0 {
		t.Error("no commits recorded")
	}
	if res.Mean() <= 0 || res.Median() <= 0 || res.Min() <= 0 {
		t.Error("non-positive aggregate time")
	}
}

func TestRunUnknownBenchErrors(t *testing.T) {
	_, err := Run("nope", tm.Baseline(), 1, 1)
	if err == nil {
		t.Fatal("no error for unknown benchmark")
	}
	// The registry error is the UX for typos: it lists what exists.
	if !strings.Contains(err.Error(), "vacation-low") {
		t.Errorf("error does not list registered workloads: %v", err)
	}
}

func TestStatisticsHelpers(t *testing.T) {
	r := Result{Times: []time.Duration{10, 20, 30, 40, 100}}
	if r.Min() != 10 {
		t.Errorf("Min = %v", r.Min())
	}
	if r.Median() != 30 {
		t.Errorf("Median = %v", r.Median())
	}
	if r.Mean() != 40 {
		t.Errorf("Mean = %v", r.Mean())
	}
	// Even run counts: the mean of the two middle samples, not the
	// upper one (-runs 2 must not report the slower run as the median).
	if m := (Result{Times: []time.Duration{40, 10}}).Median(); m != 25 {
		t.Errorf("Median of 2 = %v, want 25", m)
	}
	if m := (Result{Times: []time.Duration{100, 10, 30, 20}}).Median(); m != 25 {
		t.Errorf("Median of 4 = %v, want 25", m)
	}
	if r.RelStdDev() <= 0 {
		t.Error("RelStdDev should be positive for varied samples")
	}
	same := Result{Times: []time.Duration{50, 50, 50}}
	if same.RelStdDev() != 0 {
		t.Errorf("RelStdDev of constant samples = %v", same.RelStdDev())
	}
	one := Result{Times: []time.Duration{50}}
	if one.RelStdDev() != 0 {
		t.Error("RelStdDev of one sample should be 0")
	}
}

func TestImprovementSign(t *testing.T) {
	base := Result{Times: []time.Duration{100}}
	faster := Result{Times: []time.Duration{80}}
	slower := Result{Times: []time.Duration{120}}
	if imp := Improvement(base, faster); imp != 20 {
		t.Errorf("Improvement = %v, want 20", imp)
	}
	if imp := Improvement(base, slower); imp != -20 {
		t.Errorf("Improvement = %v, want -20", imp)
	}
}

func TestConfigSets(t *testing.T) {
	if n := len(Fig10Configs()); n != 5 {
		t.Errorf("Fig10Configs = %d, want 5", n)
	}
	if n := len(Fig11bConfigs()); n != 5 {
		t.Errorf("Fig11bConfigs = %d, want 5", n)
	}
	if n := len(Table1Configs()); n != 5 {
		t.Errorf("Table1Configs = %d, want 5", n)
	}
	for _, sets := range [][]tm.Profile{Fig10Configs(), Fig11bConfigs(), Table1Configs()} {
		if sets[0].Name() != "baseline" {
			t.Errorf("first profile %q, want baseline", sets[0].Name())
		}
	}
	if len(Benches()) != 10 {
		t.Errorf("Benches = %d, want 10 (Table 1 roster)", len(Benches()))
	}
}

func TestMeasureBreakdownSums(t *testing.T) {
	r, w, all, err := MeasureBreakdown("ssca2")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Breakdown{r, w, all} {
		if b.Total == 0 {
			t.Fatal("empty breakdown")
		}
		sum := b.CapHeap + b.CapStack + b.Other + b.Required
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("breakdown fractions sum to %v", sum)
		}
	}
	if all.Total != r.Total+w.Total {
		t.Errorf("all.Total %d != reads %d + writes %d", all.Total, r.Total, w.Total)
	}
}

func TestMeasureRemovalWithinBounds(t *testing.T) {
	rm, err := MeasureRemoval("ssca2")
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range Fig9Techniques() {
		if rm.Read[tech] < 0 || rm.Read[tech] > 1 || rm.Write[tech] < 0 || rm.Write[tech] > 1 {
			t.Errorf("removal fraction out of range for %s", tech)
		}
	}
}

func TestReportWriters(t *testing.T) {
	var buf bytes.Buffer
	WriteFig8(&buf, "reads", []Breakdown{{Bench: "x", Total: 10, CapHeap: 0.5, Required: 0.5}})
	if !strings.Contains(buf.String(), "Figure 8") || !strings.Contains(buf.String(), "50.0%") {
		t.Errorf("Fig8 output:\n%s", buf.String())
	}
	buf.Reset()
	WriteFig9(&buf, "writes", []Removal{{
		Bench: "x",
		Read:  map[string]float64{"tree": 1},
		Write: map[string]float64{"tree": 0.25},
	}})
	if !strings.Contains(buf.String(), "25.0%") {
		t.Errorf("Fig9 output:\n%s", buf.String())
	}
	buf.Reset()
	rows := map[string]map[string]float64{}
	for _, b := range Benches() {
		rows[b] = map[string]float64{"baseline": 0.5, "compiler": 0.1}
	}
	WriteTable1(&buf, rows, []string{"baseline", "compiler"}, 16)
	if !strings.Contains(buf.String(), "Table 1") || !strings.Contains(buf.String(), "0.50") {
		t.Errorf("Table1 output:\n%s", buf.String())
	}
	buf.Reset()
	WriteTable2(&buf, rows, []string{"baseline"}, 16, 5)
	if !strings.Contains(buf.String(), "Table 2") {
		t.Errorf("Table2 output:\n%s", buf.String())
	}
	buf.Reset()
	imp := map[string]map[string]float64{}
	for _, b := range Benches() {
		imp[b] = map[string]float64{"compiler": 14.0}
	}
	WriteImprovements(&buf, "Figure 11", imp, []string{"baseline", "compiler"})
	if !strings.Contains(buf.String(), "+14.0%") {
		t.Errorf("Improvements output:\n%s", buf.String())
	}
}

func TestRunMatrixInterleaves(t *testing.T) {
	profiles := []tm.Profile{tm.Baseline(), tm.CompilerElision()}
	results, err := RunMatrix("ssca2", profiles, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if len(r.Times) != 2 {
			t.Errorf("config %d: %d times, want 2", i, len(r.Times))
		}
		if r.Config != profiles[i].Name() {
			t.Errorf("config %d name %q", i, r.Config)
		}
	}
}

func TestDefaultThreadCounts(t *testing.T) {
	counts := DefaultThreadCounts()
	if len(counts) == 0 || counts[0] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	n := runtime.NumCPU()
	if counts[len(counts)-1] != n {
		t.Errorf("last count = %d, want NumCPU %d", counts[len(counts)-1], n)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Errorf("counts not strictly increasing: %v", counts)
		}
	}
}

func TestSweepProducesCurve(t *testing.T) {
	results, err := Sweep("ssca2", tm.Baseline().Perf(), []int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for i, want := range []int{1, 2} {
		if results[i].Threads != want {
			t.Errorf("result %d threads = %d, want %d", i, results[i].Threads, want)
		}
		if results[i].Engine != "perf-noinstr" {
			t.Errorf("result %d engine = %q", i, results[i].Engine)
		}
		if len(results[i].Times) != 1 {
			t.Errorf("result %d times = %v", i, results[i].Times)
		}
	}
	var buf bytes.Buffer
	WriteSweep(&buf, results)
	if !strings.Contains(buf.String(), "perf-noinstr") || !strings.Contains(buf.String(), "ssca2") {
		t.Errorf("sweep table:\n%s", buf.String())
	}
}

// --- An external workload, written purely against the tm package ---

// extCounter is a scenario defined outside internal/stamp: concurrent
// counter increments plus a per-transaction scratch record, so both
// full barriers and captured (elidable) accesses occur.
type extCounter struct {
	perThread int
	cell      tm.Word
	want      uint64
}

func (c *extCounter) Name() string { return "ext-counter" }

func (c *extCounter) MemConfig() tm.MemConfig {
	// Each thread's allocation cache grabs 8192-word spans from the
	// central heap, so size for MaxThreads spans plus slack.
	return tm.MemConfig{GlobalWords: 64, HeapWords: 1 << 17, StackWords: 1 << 8, MaxThreads: 8}
}

func (c *extCounter) Setup(rt *tm.Runtime) {
	c.cell = rt.AllocGlobal(1).Word(0)
}

func (c *extCounter) Run(rt *tm.Runtime, nthreads int) {
	rt.Parallel(nthreads, func(th *tm.Thread, tid, _ int) {
		for i := 0; i < c.perThread; i++ {
			th.Atomic(func(tx *tm.Tx) {
				scratch := tx.Alloc(2) // captured: elidable stores
				scratch.Word(0).Store(tx, uint64(tid))
				scratch.Word(1).Store(tx, uint64(i))
				c.cell.Add(tx, 1)
				tx.Free(scratch)
			})
		}
	})
	c.want += uint64(nthreads * c.perThread)
}

func (c *extCounter) Validate(rt *tm.Runtime) error {
	if got := c.cell.Peek(rt); got != c.want {
		return fmt.Errorf("counter = %d, want %d", got, c.want)
	}
	return nil
}

func init() {
	tm.RegisterWorkload("ext-counter", func() tm.Workload {
		return &extCounter{perThread: 300}
	})
}

// valTxCounter is a workload whose Setup AND Validate both run
// transactions — the shape (tmmsg walks every topic, vacation re-reads
// every table) that used to pollute the reported statistics, because
// Run snapshotted rt.Stats() only after Validate.
type valTxCounter struct {
	perThread   int
	cell        tm.Word
	want        uint64
	preValidate tm.Stats // rt.Stats() at the instant Validate starts
	validated   bool
}

// lastValTx is the most recently constructed instance, so the test can
// reach through the registry to its snapshots.
var lastValTx *valTxCounter

func (c *valTxCounter) Name() string { return "ext-valtx" }

func (c *valTxCounter) MemConfig() tm.MemConfig {
	return tm.MemConfig{GlobalWords: 64, HeapWords: 1 << 17, StackWords: 1 << 8, MaxThreads: 8}
}

func (c *valTxCounter) Setup(rt *tm.Runtime) {
	c.cell = rt.AllocGlobal(1).Word(0)
	rt.Thread(0).Atomic(func(tx *tm.Tx) { c.cell.Store(tx, 0) }) // transactional setup
}

func (c *valTxCounter) Run(rt *tm.Runtime, nthreads int) {
	rt.Parallel(nthreads, func(th *tm.Thread, tid, _ int) {
		for i := 0; i < c.perThread; i++ {
			th.Atomic(func(tx *tm.Tx) { c.cell.Add(tx, 1) })
		}
	})
	c.want += uint64(nthreads * c.perThread)
}

func (c *valTxCounter) Validate(rt *tm.Runtime) error {
	c.preValidate = rt.Snapshot().Stats
	c.validated = true
	var got uint64
	th := rt.Thread(0)
	for i := 0; i < 16; i++ { // transactional re-reads, like a topic walk
		th.Atomic(func(tx *tm.Tx) { got = c.cell.Load(tx) })
	}
	if got != c.want {
		return fmt.Errorf("counter = %d, want %d", got, c.want)
	}
	return nil
}

func init() {
	tm.RegisterWorkload("ext-valtx", func() tm.Workload {
		lastValTx = &valTxCounter{perThread: 100}
		return lastValTx
	})
}

// TestRunStatsExcludeValidation pins the measurement-integrity fix:
// the stats a Result reports must equal the snapshot taken before
// Validate ran, and must count exactly the timed phase's transactions
// — neither the transactional setup nor the transactional validation.
func TestRunStatsExcludeValidation(t *testing.T) {
	res, err := Run("ext-valtx", tm.Baseline(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := lastValTx
	if w == nil || !w.validated {
		t.Fatal("ext-valtx did not run its transactional Validate")
	}
	if res.Stats != w.preValidate {
		t.Errorf("reported stats differ from the pre-Validate snapshot:\n  reported: %+v\n  snapshot: %+v",
			res.Stats, w.preValidate)
	}
	if want := uint64(2 * w.perThread); res.Stats.Commits != want {
		t.Errorf("reported commits = %d, want exactly %d (timed phase only)", res.Stats.Commits, want)
	}
}

// TestCaptureStatsExcludeValidation pins the same invariant for the
// capture report rows (stampbench -experiment capture): every
// profile's commit count is exactly the timed phase's.
func TestCaptureStatsExcludeValidation(t *testing.T) {
	rows, err := MeasureCaptureStats("ext-valtx", CaptureConfigs())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if want := uint64(lastValTx.perThread); r.Commits != want {
			t.Errorf("%s: capture row commits = %d, want exactly %d (setup and validation excluded)",
				r.Config, r.Commits, want)
		}
	}
}

// TestExternalWorkloadThroughHarness is the acceptance test for the
// pluggable registry: a workload registered outside internal/stamp
// runs through harness.Run and shows up in the report output next to
// the STAMP roster.
func TestExternalWorkloadThroughHarness(t *testing.T) {
	res, err := Run("ext-counter", tm.RuntimeAll(tm.LogTree), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Commits == 0 {
		t.Error("no commits recorded")
	}
	if res.Stats.WriteElided() == 0 {
		t.Error("runtime capture analysis elided nothing for the scratch records")
	}
	rows := map[string]map[string]float64{
		"vacation-low": {"baseline": 0.1},
		"ext-counter":  {"baseline": res.Stats.AbortRatio()},
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows, []string{"baseline"}, 2)
	out := buf.String()
	if !strings.Contains(out, "ext-counter") {
		t.Errorf("external workload missing from report:\n%s", out)
	}
}
