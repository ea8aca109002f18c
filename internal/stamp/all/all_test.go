package all

import (
	"testing"

	"repro/internal/stamp"
	"repro/internal/stm"
)

// TestAllBenchmarksRegistered pins the suite roster (10 configurations
// of 8 applications, as in the paper's Table 1).
func TestAllBenchmarksRegistered(t *testing.T) {
	want := map[string]bool{
		"bayes": true, "genome": true, "intruder": true,
		"kmeans-high": true, "kmeans-low": true, "labyrinth": true,
		"ssca2": true, "vacation-high": true, "vacation-low": true, "yada": true,
	}
	names := stamp.Names()
	if len(names) != len(want) {
		t.Fatalf("registered %d benchmarks %v, want %d", len(names), names, len(want))
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected benchmark %q", n)
		}
	}
	if _, err := stamp.New("no-such-bench"); err == nil {
		t.Error("New on unknown benchmark did not fail")
	}
}

// runOne sets up, runs, and validates one benchmark under one config.
func runOne(t *testing.T, name string, cfg stm.OptConfig, threads int) *stm.Runtime {
	t.Helper()
	b, err := stamp.New(name)
	if err != nil {
		t.Fatal(err)
	}
	rt := stm.New(b.MemConfig(), cfg)
	b.Setup(rt)
	b.Run(rt, threads)
	if err := b.Validate(rt); err != nil {
		t.Fatalf("%s [%s, %d threads]: validation failed: %v", name, cfg.Name, threads, err)
	}
	rt.Validate() // no orecs left locked
	return rt
}

// TestSingleThreadBaseline runs every benchmark serially and validates
// its result.
func TestSingleThreadBaseline(t *testing.T) {
	for _, name := range stamp.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rt := runOne(t, name, stm.Baseline(), 1)
			s := rt.Stats()
			if s.Commits == 0 {
				t.Error("no transactions committed")
			}
			if s.Aborts != 0 {
				t.Errorf("%d aborts at 1 thread", s.Aborts)
			}
		})
	}
}

// TestMultiThreadAllConfigs is the correctness matrix: every benchmark
// × every optimization class at 4 threads must validate.
func TestMultiThreadAllConfigs(t *testing.T) {
	cfgs := []stm.OptConfig{
		stm.Baseline(),
		stm.RuntimeAll(),
		stm.RuntimeHeapWrite(),
		stm.Compiler(),
	}
	for _, name := range stamp.Names() {
		for _, cfg := range cfgs {
			name, cfg := name, cfg
			t.Run(name+"/"+cfg.Name, func(t *testing.T) {
				t.Parallel()
				runOne(t, name, cfg, 4)
			})
		}
	}
}

// TestCountingBreakdownShapes checks the qualitative Fig. 8 shapes the
// paper reports: vacation/genome/intruder/yada have substantial
// captured-heap accesses; kmeans, ssca2 and labyrinth have essentially
// none; labyrinth's barriers are nearly all hand-instrumented.
func TestCountingBreakdownShapes(t *testing.T) {
	frac := func(s stm.Stats) (capFrac, manualFrac float64) {
		total := float64(s.ReadTotal + s.WriteTotal)
		captured := float64(s.ReadCapStack + s.ReadCapHeap + s.WriteCapStack + s.WriteCapHeap)
		manual := float64(s.ReadManual + s.WriteManual)
		return captured / total, manual / total
	}
	get := func(name string) stm.Stats {
		b, err := stamp.New(name)
		if err != nil {
			t.Fatal(err)
		}
		rt := stm.New(b.MemConfig(), stm.CountingConfig())
		b.Setup(rt)
		rt.ResetStats() // classify the timed phase only, like Sec. 4.1
		b.Run(rt, 1)
		if err := b.Validate(rt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return rt.Stats()
	}
	if c, _ := frac(get("vacation-high")); c < 0.10 {
		t.Errorf("vacation-high captured fraction = %.2f, want ≥ 0.10", c)
	}
	if c, _ := frac(get("genome")); c < 0.10 {
		t.Errorf("genome captured fraction = %.2f, want ≥ 0.10", c)
	}
	if c, _ := frac(get("kmeans-high")); c > 0.02 {
		t.Errorf("kmeans captured fraction = %.2f, want ≈ 0", c)
	}
	if c, _ := frac(get("ssca2")); c > 0.02 {
		t.Errorf("ssca2 captured fraction = %.2f, want ≈ 0", c)
	}
	lc, lm := frac(get("labyrinth"))
	if lc > 0.02 {
		t.Errorf("labyrinth captured fraction = %.2f, want ≈ 0", lc)
	}
	if lm < 0.95 {
		t.Errorf("labyrinth manual fraction = %.2f, want ≈ 1 (no redundant barriers)", lm)
	}
	// Writes are more elidable than reads for the allocation-heavy
	// benchmarks (paper: up to 90% of write barriers vs 45% of reads),
	// and the write-captured fraction is substantial.
	for _, n := range []string{"vacation-low", "vacation-high", "genome", "intruder", "yada"} {
		s := get(n)
		wCap := float64(s.WriteCapStack+s.WriteCapHeap) / float64(s.WriteTotal)
		rCap := float64(s.ReadCapStack+s.ReadCapHeap) / float64(s.ReadTotal)
		if wCap <= rCap {
			t.Errorf("%s: write captured %.2f ≤ read captured %.2f", n, wCap, rCap)
		}
		if wCap < 0.40 {
			t.Errorf("%s: write captured fraction %.2f, want ≥ 0.40", n, wCap)
		}
	}
}

// TestRuntimeElisionMatchesCounting: with the precise tree log, the
// barriers elided at runtime must equal the captured accesses the
// counting mode classifies (same precise analysis, applied vs
// observed).
func TestRuntimeElisionMatchesCounting(t *testing.T) {
	name := "vacation-low"
	mk := func(cfg stm.OptConfig) stm.Stats {
		b, err := stamp.New(name)
		if err != nil {
			t.Fatal(err)
		}
		rt := stm.New(b.MemConfig(), cfg)
		b.Setup(rt)
		rt.ResetStats()
		b.Run(rt, 1)
		if err := b.Validate(rt); err != nil {
			t.Fatal(err)
		}
		return rt.Stats()
	}
	counted := mk(stm.CountingConfig())
	elided := mk(stm.RuntimeAll())
	if elided.ReadElStack+elided.ReadElHeap != counted.ReadCapStack+counted.ReadCapHeap {
		t.Errorf("read elisions %d != counted captured reads %d",
			elided.ReadElStack+elided.ReadElHeap, counted.ReadCapStack+counted.ReadCapHeap)
	}
	if elided.WriteElStack+elided.WriteElHeap != counted.WriteCapStack+counted.WriteCapHeap {
		t.Errorf("write elisions %d != counted captured writes %d",
			elided.WriteElStack+elided.WriteElHeap, counted.WriteCapStack+counted.WriteCapHeap)
	}
}

// TestCompilerElidesSubsetOfCaptured: static elisions must be a subset
// of what the precise runtime analysis finds (the compiler is
// conservative).
func TestCompilerElidesSubsetOfCaptured(t *testing.T) {
	for _, name := range []string{"vacation-high", "genome", "intruder"} {
		b, err := stamp.New(name)
		if err != nil {
			t.Fatal(err)
		}
		rtC := stm.New(b.MemConfig(), stm.Compiler())
		b.Setup(rtC)
		b.Run(rtC, 1)
		if err := b.Validate(rtC); err != nil {
			t.Fatal(err)
		}
		sc := rtC.Stats()

		b2, _ := stamp.New(name)
		rtT := stm.New(b2.MemConfig(), stm.RuntimeAll())
		b2.Setup(rtT)
		b2.Run(rtT, 1)
		if err := b2.Validate(rtT); err != nil {
			t.Fatal(err)
		}
		st := rtT.Stats()
		if sc.ReadElStatic > st.ReadElStack+st.ReadElHeap {
			t.Errorf("%s: compiler elided %d reads > runtime captured %d",
				name, sc.ReadElStatic, st.ReadElStack+st.ReadElHeap)
		}
		if sc.WriteElStatic > st.WriteElStack+st.WriteElHeap {
			t.Errorf("%s: compiler elided %d writes > runtime captured %d",
				name, sc.WriteElStatic, st.WriteElStack+st.WriteElHeap)
		}
	}
}
