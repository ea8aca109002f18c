package bayes

import (
	"testing"

	"repro/internal/stm"
)

func small() Config {
	return Config{Name: "bayes-test", Vars: 16, Records: 256, MaxParents: 3, Seed: 29}
}

func runOne(t *testing.T, cfg Config, opt stm.OptConfig, threads int) (*B, *stm.Runtime) {
	t.Helper()
	b := NewWith(cfg)
	rt := stm.New(b.MemConfig(), opt)
	b.Setup(rt)
	b.Run(rt, threads)
	if err := b.Validate(rt); err != nil {
		t.Fatalf("validate: %v", err)
	}
	rt.Validate()
	return b, rt
}

func TestSerialLearning(t *testing.T) {
	_, rt := runOne(t, small(), stm.Baseline(), 1)
	s := rt.Stats()
	if s.Commits == 0 {
		t.Fatal("no learner transactions ran")
	}
}

func TestParallelLearning(t *testing.T) {
	for _, threads := range []int{2, 6} {
		runOne(t, small(), stm.Baseline(), threads)
	}
}

// TestAnnotationsElideQueryVectors: the Fig. 1(b)/Fig. 7 case — the
// per-thread query vectors are elidable only via the annotation API.
func TestAnnotationsElideQueryVectors(t *testing.T) {
	// Without annotations: no private elisions.
	plain, rtPlain := runOne(t, small(), stm.RuntimeAll(), 2)
	_ = plain
	if s := rtPlain.Stats(); s.ReadElPriv+s.WriteElPriv != 0 {
		t.Errorf("private elisions without annotations: %d", s.ReadElPriv+s.WriteElPriv)
	}
	// With annotations: query-vector traffic is elided.
	cfg := small()
	cfg.Annotate = true
	opt := stm.RuntimeAll()
	opt.Annotations = true
	_, rt := runOne(t, cfg, opt, 2)
	s := rt.Stats()
	if s.ReadElPriv == 0 || s.WriteElPriv == 0 {
		t.Errorf("annotated query vectors not elided: r=%d w=%d", s.ReadElPriv, s.WriteElPriv)
	}
}

func TestParentCapRespected(t *testing.T) {
	cfg := small()
	cfg.MaxParents = 1
	b, _ := runOne(t, cfg, stm.Baseline(), 4)
	_ = b // Validate() checks the cap and counter consistency
}
