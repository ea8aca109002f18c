package main

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{12, 50}, {19, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {63000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if beyond := float64(c.n) * (100 - tailPercentile(c.n)) / 100; c.n >= 20 && beyond < 10-1e-6 {
			t.Errorf("n=%d: only %g samples beyond p%g", c.n, beyond, tailPercentile(c.n))
		}
	}
}

func TestSummarizeReportsP99OnlyFromThousandSamples(t *testing.T) {
	lat := make([]int64, 999)
	for i := range lat {
		lat[i] = int64(999 - i)
	}
	s := summarize(lat)
	if s.p50 != 500 || !math.IsNaN(s.p99) || s.tailP != 90 || s.tailNs != 900 {
		t.Errorf("999 samples: %+v", s)
	}
	lat = make([]int64, 1000)
	for i := range lat {
		lat[i] = int64(i + 1)
	}
	if s := summarize(lat); s.p99 != 990 || s.tailP != 99 {
		t.Errorf("1000 samples: %+v", s)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5].
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("1..10: %g %g %g", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("3 1 4 1 5: %g %g %g", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := newRecorder(16, "root", "child", "grandchild")
	root := r.add(0, -1, 0, 0, 100)
	a := r.add(1, root, 0, 10, 40)
	r.add(2, a, 0, 15, 25)
	r.add(1, root, 0, 30, 60)   // overlaps a by 10: [40,60) is new
	r.add(1, root, 0, 90, 130)  // overhangs the parent: [90,100) counts
	r.add(1, root, 0, 200, 210) // outside the parent: nothing
	if extra := r.begin(0, -1, -1, 0); extra != 6 {
		t.Fatalf("slot %d, want 6", extra)
	}
	self := selfTimes(r.recorded()[:6])
	want := []int64{100 - 30 - 20 - 10, 30 - 10, 10, 30, 40, 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	tot := r.totals()
	if tot[1].Count != 4 || tot[1].TotalNs != 30+30+40+10 || tot[0].SelfNs != 40 {
		t.Errorf("totals %+v", tot)
	}
}

func TestRecorderFullAndReset(t *testing.T) {
	r := newRecorder(3, "life", "req")
	r.add(0, -1, -1, 0, 5)
	r.add(1, -1, 7, 5, 6)
	r.add(1, -1, 8, 6, 7)
	if slot := r.begin(1, -1, 9, 7); slot != -1 || r.lost.Load() != 1 {
		t.Errorf("full recorder gave slot %d, lost %d", slot, r.lost.Load())
	}
	r.end(-1, 9) // must not panic
	r.reset()
	if got := r.recorded(); len(got) != 1 || got[0].req != -1 {
		t.Errorf("after reset: %+v", got)
	}
	var nilRec *recorder
	if nilRec.begin(0, -1, 0, 0) != -1 {
		t.Error("nil recorder must hand out -1")
	}
	nilRec.end(0, 1)
}

func TestPoissonScheduleIsDeterministicPerSeed(t *testing.T) {
	a := poissonSchedule(7, 5000, 20000)
	b := poissonSchedule(7, 5000, 20000)
	c := poissonSchedule(8, 5000, 20000)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not monotonic at %d", i)
		}
	}
	// 5000 arrivals at 20 000/s span 0.25 s ± a few percent.
	if span := float64(a[len(a)-1]) / 1e9; span < 0.23 || span > 0.27 {
		t.Errorf("span %g s", span)
	}
}

// Every workload's -quick run, untraced and traced, must pass its
// gates and emit exactly the metrics BENCHMARK.json declares for that
// kind of run, each a finite number.
func TestQuickRunsEmitDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range [][]metricDecl{spec.EndToEnd, spec.PerLayer} {
		for _, d := range list {
			if !metricNameRE.MatchString(d.Name) || d.Unit == "" {
				t.Errorf("bad declaration %+v", d)
			}
		}
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end, %d per-layer metrics", len(spec.EndToEnd), len(spec.PerLayer))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o := options{workload: w.Name, seed: 3, seconds: quickSeconds, trace: traced, quick: true, root: "..", durdir: t.TempDir(), layerNames: spec.layerNames()}
				rep := newReport()
				runWorkload(o, rep)
				runCleanups()
				metrics, problems := spec.collect(rep, traced)
				for _, p := range problems {
					t.Error(p)
				}
				for _, g := range rep.gateFails {
					t.Errorf("gate: %s", g)
				}
				if rep.failed != 0 || rep.attempted < 1 {
					t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
				}
				want := len(spec.EndToEnd)
				if traced {
					want = len(spec.PerLayer)
				}
				if len(metrics) != want {
					t.Errorf("%d metrics in the result, %d declared", len(metrics), want)
				}
				if !traced {
					for name, m := range metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %g; must never be 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

func TestCollectReportsMissingAndUndeclared(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricDecl{{Name: "a", Unit: "s"}, {Name: "b", Unit: "s"}, {Name: "c", Unit: "s"}},
		PerLayer: []metricDecl{{Name: "x.y", Unit: "ns"}},
	}
	rep := newReport()
	rep.e2e["a"] = 1
	rep.e2e["b"] = math.NaN()
	rep.e2e["zzz"] = 2
	rep.layer["x.y"] = 0
	rep.layer["x.z"] = 0
	got, problems := spec.collect(rep, false)
	if len(got) != 1 || got["a"].Unit != "s" {
		t.Errorf("metrics %v", got)
	}
	if len(problems) != 4 { // b is NaN, c missing, zzz and x.z undeclared
		t.Errorf("problems %q", problems)
	}
}
