package yada

import (
	"testing"

	"repro/internal/stm"
)

func small() Config { return Config{Name: "yada-test", Elements: 512, Threshold: 100, Seed: 23} }

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

func TestSerialRefinement(t *testing.T) {
	b, rt := runOne(t, small(), stm.Baseline(), 1)
	if b.removed.Load() == 0 {
		t.Fatal("no cavities refined; bad-quality seeding broken")
	}
	s := rt.Stats()
	if s.TxAllocs == 0 {
		t.Error("refinement allocated nothing")
	}
	// The WAW filter must absorb the double-written link words.
	if s.WriteWAWSkips == 0 {
		t.Error("no write-after-write skips; yada's signature is missing")
	}
}

func TestParallelRefinement(t *testing.T) {
	for _, opt := range []stm.OptConfig{stm.Baseline(), stm.RuntimeAll(), stm.Compiler()} {
		runOne(t, small(), opt, 8)
	}
}

func TestAllGoodMeshIsNoop(t *testing.T) {
	cfg := small()
	cfg.Threshold = 1 // nothing is bad
	b, rt := runOne(t, cfg, stm.Baseline(), 2)
	if b.removed.Load() != 0 {
		t.Errorf("removed %d elements from an already-good mesh", b.removed.Load())
	}
	_ = rt
}

func TestNoWAWFilterGrowsUndoLog(t *testing.T) {
	on, _ := runOne(t, small(), stm.Baseline(), 1)
	_ = on
	cfg := stm.Baseline()
	cfg.NoWAWFilter = true
	b := NewWith(small())
	rt := stm.New(b.MemConfig(), cfg)
	b.Setup(rt)
	b.Run(rt, 1)
	if err := b.Validate(rt); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().WriteWAWSkips != 0 {
		t.Error("WAW skips counted with the filter disabled")
	}
}
