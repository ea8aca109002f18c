package genome

import (
	"testing"

	"repro/internal/stm"
)

func small() Config { return Config{Name: "genome-test", GeneLen: 512, Coverage: 3, Seed: 5} }

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

func TestSerialReconstruction(t *testing.T) {
	b, rt := runOne(t, small(), stm.Baseline(), 1)
	// Every position yields a unique segment at this scale.
	if got, want := len(b.entries), b.nSegments(); got != want {
		t.Errorf("unique segments = %d, want %d", got, want)
	}
	s := rt.Stats()
	// Coverage-fold duplication: most phase-1 inserts are duplicates
	// whose speculative entry allocation is freed in place.
	if s.TxFrees == 0 {
		t.Error("no duplicate segments were freed")
	}
}

func TestParallelReconstruction(t *testing.T) {
	for _, opt := range []stm.OptConfig{stm.Baseline(), stm.RuntimeAll(), stm.Compiler()} {
		runOne(t, small(), opt, 6)
	}
}

func TestSegmentPacking(t *testing.T) {
	b := NewWith(small())
	b.gene = make([]byte, 64)
	for i := range b.gene {
		b.gene[i] = byte(i % 4)
	}
	// suffix(seg_i) must equal prefix(seg_{i+1}) by construction.
	for pos := 0; pos+segLen < len(b.gene); pos++ {
		if suffix(b.segWord(pos)) != prefix(b.segWord(pos+1)) {
			t.Fatalf("overlap broken at pos %d", pos)
		}
	}
}

func TestDeterminism(t *testing.T) {
	b1 := NewWith(small())
	b2 := NewWith(small())
	rt1 := stm.New(b1.MemConfig(), stm.Baseline())
	rt2 := stm.New(b2.MemConfig(), stm.Baseline())
	b1.Setup(rt1)
	b2.Setup(rt2)
	if len(b1.instances) != len(b2.instances) {
		t.Fatal("instance counts differ")
	}
	for i := range b1.instances {
		if b1.instances[i] != b2.instances[i] {
			t.Fatal("instance shuffle not deterministic")
		}
	}
}
