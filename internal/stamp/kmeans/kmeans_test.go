package kmeans

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/stm"
)

func small() Config {
	return Config{Name: "kmeans-test", Points: 256, Dims: 4, Clusters: 4, Iters: 3, Seed: 11}
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

func TestSerial(t *testing.T) {
	_, rt := runOne(t, small(), stm.Baseline(), 1)
	s := rt.Stats()
	if s.Commits != 256*3 {
		t.Errorf("commits = %d, want one per point per iteration (%d)", s.Commits, 256*3)
	}
}

// TestParallelMatchesSerialCenters: the per-iteration accumulation is
// commutative (floating-point association differences aside the values
// are sums of the same multiset), so centers must match closely.
func TestParallelCentersClose(t *testing.T) {
	bs, rts := runOne(t, small(), stm.Baseline(), 1)
	bp, rtp := runOne(t, small(), stm.RuntimeAll(), 6)
	ss, sp := rts.Space(), rtp.Space()
	for c := 0; c < bs.cfg.Clusters; c++ {
		for d := 0; d < bs.cfg.Dims; d++ {
			a := ss.LoadFloat(bs.centers + mem.Addr(c*bs.cfg.Dims+d))
			b := sp.LoadFloat(bp.centers + mem.Addr(c*bp.cfg.Dims+d))
			diff := a - b
			if diff < 0 {
				diff = -diff
			}
			if diff > 1e-6 {
				t.Fatalf("center (%d,%d): serial %v vs parallel %v", c, d, a, b)
			}
		}
	}
}

// TestNoCaptureOpportunities: kmeans is the paper's no-elision
// benchmark — runtime capture analysis must find nothing.
func TestNoCaptureOpportunities(t *testing.T) {
	_, rt := runOne(t, small(), stm.RuntimeAll(), 1)
	s := rt.Stats()
	if e := s.ReadElided() + s.WriteElided(); e != 0 {
		t.Errorf("%d barriers elided; kmeans has no captured memory", e)
	}
}

func TestHighVsLowContentionPresets(t *testing.T) {
	if HighContention().Clusters >= LowContention().Clusters {
		t.Error("high contention must use fewer clusters")
	}
}
