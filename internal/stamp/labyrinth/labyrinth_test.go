package labyrinth

import (
	"testing"

	"repro/internal/stm"
)

func small() Config { return Config{Name: "labyrinth-test", X: 12, Y: 12, Z: 2, Pairs: 20, Seed: 3} }

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

func TestSerialRoutesAll(t *testing.T) {
	b, _ := runOne(t, small(), stm.Baseline(), 1)
	// On an empty grid with few pairs, serial routing should succeed
	// for nearly every pair (later pairs can be walled in).
	if len(b.routed) == 0 {
		t.Fatal("no pairs routed")
	}
	for _, p := range b.routed {
		if len(p) < 1 {
			t.Error("empty path recorded")
		}
	}
}

func TestParallelRoutingDisjoint(t *testing.T) {
	for _, threads := range []int{2, 8} {
		b, rt := runOne(t, small(), stm.RuntimeAll(), threads)
		_ = b
		_ = rt
	}
}

func TestPathEndpointsMatchPairs(t *testing.T) {
	b, _ := runOne(t, small(), stm.Baseline(), 2)
	for k, path := range b.routed {
		id := int(b.ids[k]) - 2
		src, dst := b.pairs[id][0], b.pairs[id][1]
		// traceback builds dst→src.
		if path[0] != dst || path[len(path)-1] != src {
			t.Errorf("path %d endpoints %v..%v, want %v..%v",
				id, path[0], path[len(path)-1], dst, src)
		}
	}
}

// TestGridFullContention: many pairs on a tiny grid force failures and
// conflicts; the accounting must still add up.
func TestGridFullContention(t *testing.T) {
	cfg := Config{Name: "cramped", X: 6, Y: 6, Z: 1, Pairs: 17, Seed: 9}
	b, _ := runOne(t, cfg, stm.Baseline(), 4)
	if len(b.routed)+b.failed != cfg.Pairs {
		t.Errorf("routed %d + failed %d != %d", len(b.routed), b.failed, cfg.Pairs)
	}
	if b.failed == 0 {
		t.Log("note: all pairs routed even on cramped grid")
	}
}
