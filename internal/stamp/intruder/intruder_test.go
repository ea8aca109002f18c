package intruder

import (
	"testing"

	"repro/internal/stm"
)

func small() Config {
	return Config{Name: "intruder-test", Flows: 256, MaxFrags: 5, WordsPerFrag: 3, AttackPct: 20, Seed: 13}
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

func TestSerialDetectsAllAttacks(t *testing.T) {
	b, _ := runOne(t, small(), stm.Baseline(), 1)
	if b.nPlanted == 0 {
		t.Fatal("no attacks planted; test is vacuous")
	}
	if got := b.nDetected.Load(); got != int64(b.nPlanted) {
		t.Errorf("detected %d, planted %d", got, b.nPlanted)
	}
}

func TestParallelPipeline(t *testing.T) {
	for _, opt := range []stm.OptConfig{stm.Baseline(), stm.RuntimeAll(), stm.Compiler()} {
		runOne(t, small(), opt, 6)
	}
}

func TestNoAttacks(t *testing.T) {
	cfg := small()
	cfg.AttackPct = 0
	b, _ := runOne(t, cfg, stm.Baseline(), 2)
	if b.nPlanted != 0 || b.nDetected.Load() != 0 {
		t.Errorf("planted %d detected %d, want 0/0", b.nPlanted, b.nDetected.Load())
	}
}

func TestAllAttacks(t *testing.T) {
	cfg := small()
	cfg.AttackPct = 100
	b, _ := runOne(t, cfg, stm.Baseline(), 2)
	if b.nPlanted != cfg.Flows {
		t.Errorf("planted %d, want every flow", b.nPlanted)
	}
}

func TestSingleFragmentFlows(t *testing.T) {
	cfg := small()
	cfg.MaxFrags = 1 // every flow completes on its first fragment
	runOne(t, cfg, stm.Baseline(), 4)
}

// TestReassemblyReclaimsState: after the run, every per-flow
// reassembly structure must have been torn down transactionally.
func TestReassemblyReclaimsState(t *testing.T) {
	_, rt := runOne(t, small(), stm.RuntimeAll(), 4)
	s := rt.Stats()
	if s.TxAllocs == 0 || s.TxFrees == 0 {
		t.Errorf("allocs=%d frees=%d; expected reassembly churn", s.TxAllocs, s.TxFrees)
	}
}
