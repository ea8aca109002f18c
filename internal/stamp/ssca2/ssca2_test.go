package ssca2

import (
	"testing"

	"repro/internal/stm"
)

func small() Config { return Config{Name: "ssca2-test", Vertices: 128, Edges: 2048, Seed: 17} }

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

func TestSerialGraphConstruction(t *testing.T) {
	_, rt := runOne(t, small(), stm.Baseline(), 1)
	if rt.Stats().Commits != 2048 {
		t.Errorf("commits = %d, want one per edge", rt.Stats().Commits)
	}
}

func TestParallelGraphConstruction(t *testing.T) {
	for _, threads := range []int{2, 8, 16} {
		runOne(t, small(), stm.Baseline(), threads)
	}
}

func TestNoElisionOpportunities(t *testing.T) {
	_, rt := runOne(t, small(), stm.RuntimeAll(), 4)
	s := rt.Stats()
	if e := s.ReadElided() + s.WriteElided(); e != 0 {
		t.Errorf("%d barriers elided; ssca2 allocates nothing in transactions", e)
	}
}

// TestHotVertexContention concentrates all edges on few vertices,
// forcing write-write conflicts on the degree counters.
func TestHotVertexContention(t *testing.T) {
	cfg := Config{Name: "hot", Vertices: 4, Edges: 4096, Seed: 19}
	_, rt := runOne(t, cfg, stm.Baseline(), 8)
	if rt.Stats().Aborts == 0 {
		t.Log("note: no conflicts on hot vertices this run")
	}
}
