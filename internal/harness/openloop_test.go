package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/tm"

	_ "repro/internal/scenarios/tmkv"
	_ "repro/internal/scenarios/tmmsg"
)

func TestQuantileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.50, 50}, {0.95, 100}, {0.99, 100}, {0.10, 10}, {1.0, 100},
	}
	for _, c := range cases {
		if got := quantileNs(sorted, c.q); got != c.want {
			t.Errorf("q%.2f = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantileNs([]int64{42}, 0.99); got != 42 {
		t.Errorf("single sample = %d", got)
	}
	if got := quantileNs(nil, 0.5); got != 0 {
		t.Errorf("empty sample = %d", got)
	}
}

// TestRunOpenLoop drives a small open-loop run end to end over the
// served KV backend and checks the latency block is self-consistent.
func TestRunOpenLoop(t *testing.T) {
	spec := OpenLoopSpec{
		Backend:    "srv-tmkv",
		Profile:    tm.RuntimeAll(tm.LogTree),
		Workers:    2,
		MergeWidth: 4,
		Clients:    4,
		Rate:       200_000,
		Requests:   512,
		Seed:       7,
	}
	res, err := RunOpenLoop(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bench != "srv-tmkv" || res.Threads != 2 {
		t.Errorf("result key = %s/%d", res.Bench, res.Threads)
	}
	if want := "runtime-rw-stack-heap-tree+mw4@200000rps"; res.Config != want {
		t.Errorf("config = %q, want %q", res.Config, want)
	}
	l := res.Latency
	if l == nil {
		t.Fatal("no latency block")
	}
	if l.Requests != 512 || l.MergeWidth != 4 || l.Clients != 4 || l.OfferedRPS != 200_000 {
		t.Errorf("spec echo drifted: %+v", l)
	}
	if l.P50Ns <= 0 || l.P95Ns < l.P50Ns || l.P99Ns < l.P95Ns || l.MaxNs < l.P99Ns {
		t.Errorf("quantiles not monotone: p50=%d p95=%d p99=%d max=%d", l.P50Ns, l.P95Ns, l.P99Ns, l.MaxNs)
	}
	if l.AchievedRPS <= 0 {
		t.Errorf("achieved rps = %v", l.AchievedRPS)
	}
	if l.Txns == 0 || l.MergeRatio < 1 {
		t.Errorf("merge counters: txns=%d ratio=%v", l.Txns, l.MergeRatio)
	}
	if l.MergedReplies > l.Requests || l.Aborted != 0 {
		t.Errorf("reply counters: merged=%d aborted=%d", l.MergedReplies, l.Aborted)
	}
	if res.Stats.Commits == 0 {
		t.Error("no commits recorded")
	}
	var buf bytes.Buffer
	WriteLatencyTable(&buf, []Result{res})
	if !strings.Contains(buf.String(), "srv-tmkv") || !strings.Contains(buf.String(), "mw4") {
		t.Errorf("latency table:\n%s", buf.String())
	}
	// The table carries the failure count as its last column.
	fields := func(r Result, line int) []string {
		var buf bytes.Buffer
		WriteLatencyTable(&buf, []Result{r})
		return strings.Fields(strings.Split(buf.String(), "\n")[line])
	}
	if h := fields(res, 1); h[len(h)-1] != "aborted" {
		t.Errorf("header does not end in aborted: %q", h)
	}
	if f := fields(res, 2); f[len(f)-1] != "0" {
		t.Errorf("row does not end in aborted=0: %q", f)
	}
	refused := res
	refused.Latency = &LatencyStats{Aborted: 7}
	if f := fields(refused, 2); f[len(f)-1] != "7" {
		t.Errorf("row does not end in aborted=7: %q", f)
	}
}

// TestRunOpenLoopUnpaced: Rate<=0 is peak stress — every request
// scheduled at the start — and the config string says so.
func TestRunOpenLoopUnpaced(t *testing.T) {
	res, err := RunOpenLoop(OpenLoopSpec{
		Backend:    "srv-tmmsg",
		Profile:    tm.Baseline().Perf(),
		Workers:    2,
		MergeWidth: 8,
		Clients:    2,
		Requests:   256,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "baseline+mw8@peak"; res.Config != want {
		t.Errorf("config = %q, want %q", res.Config, want)
	}
	if res.Latency.OfferedRPS != 0 {
		t.Errorf("offered rps = %v, want 0 (unpaced)", res.Latency.OfferedRPS)
	}
	if res.Latency.Requests != 256 {
		t.Errorf("requests = %d", res.Latency.Requests)
	}
}

// TestOpenLoopConfigKeys pins the sweep-point key format. The rate must
// render in fixed notation at every magnitude: %g would emit
// "1e+06rps" from a million-rps point, putting the config string's own
// '+' separator inside the rate.
func TestOpenLoopConfigKeys(t *testing.T) {
	p := tm.Baseline()
	cases := []struct {
		spec OpenLoopSpec
		want string
	}{
		{OpenLoopSpec{Profile: p, MergeWidth: 4}, "baseline+mw4@peak"},
		{OpenLoopSpec{Profile: p, MergeWidth: 4, Rate: 1000}, "baseline+mw4@1000rps"},
		{OpenLoopSpec{Profile: p, MergeWidth: 8, Rate: 250_000}, "baseline+mw8@250000rps"},
		{OpenLoopSpec{Profile: p, MergeWidth: 8, Rate: 1e6}, "baseline+mw8@1000000rps"},
		{OpenLoopSpec{Profile: p, MergeWidth: 8, Rate: 2.5e6}, "baseline+mw8@2500000rps"},
		{OpenLoopSpec{Profile: p, MergeWidth: 1, Rate: 1e7}, "baseline+mw1@10000000rps"},
		{OpenLoopSpec{Profile: p, MergeWidth: 2, Rate: 1500.5}, "baseline+mw2@1500.5rps"},
		{OpenLoopSpec{Profile: p, MergeWidth: 8, Rate: 1e6, Phases: true},
			"baseline+phases+mw8@1000000rps"},
	}
	for _, c := range cases {
		if got := openLoopConfig(c.spec); got != c.want {
			t.Errorf("key = %q, want %q", got, c.want)
		}
		if strings.ContainsAny(openLoopConfig(c.spec), "eE+") != strings.ContainsAny(c.want, "eE+") {
			t.Errorf("key %q leaked scientific notation", openLoopConfig(c.spec))
		}
	}
}

func TestRunOpenLoopUnknownBackend(t *testing.T) {
	if _, err := RunOpenLoop(OpenLoopSpec{Backend: "no-such-backend", Profile: tm.Baseline()}); err == nil {
		t.Fatal("expected error for unknown backend")
	}
}
