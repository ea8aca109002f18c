package vacation

import (
	"testing"

	"repro/internal/stm"
)

func smallCfg() Config {
	return Config{Name: "vacation-test", Relations: 256, NumTx: 512,
		QueriesPerTx: 4, QueryRangePct: 60, PctUser: 80, Seed: 42}
}

func runCfg(t *testing.T, cfg Config, opt stm.OptConfig, threads int) *stm.Runtime {
	t.Helper()
	b := NewWith(cfg)
	rt := stm.New(b.MemConfig(), opt)
	b.Setup(rt)
	b.Run(rt, threads)
	if err := b.Validate(rt); err != nil {
		t.Fatalf("validate: %v", err)
	}
	rt.Validate()
	return rt
}

func TestSmallSerial(t *testing.T) {
	rt := runCfg(t, smallCfg(), stm.Baseline(), 1)
	s := rt.Stats()
	if s.Commits == 0 || s.TxAllocs == 0 {
		t.Errorf("commits=%d allocs=%d; expected transactional work", s.Commits, s.TxAllocs)
	}
}

func TestSmallParallelContended(t *testing.T) {
	cfg := smallCfg()
	cfg.QueryRangePct = 10 // tiny range: heavy contention
	rt := runCfg(t, cfg, stm.RuntimeAll(), 8)
	if rt.Stats().Aborts == 0 {
		t.Log("note: no conflicts under heavy contention this run")
	}
}

func TestHighAndLowPresets(t *testing.T) {
	h, l := HighContention(), LowContention()
	if h.QueriesPerTx <= l.QueriesPerTx {
		t.Error("high contention must query more per transaction")
	}
	if h.QueryRangePct >= l.QueryRangePct {
		t.Error("high contention must query a smaller range")
	}
	if h.PctUser >= l.PctUser {
		t.Error("low contention runs more user transactions")
	}
}

// TestActionMixes drives skewed action mixes through the manager:
// reservations only, then deletions/updates only; invariants must hold
// for both.
func TestActionMixes(t *testing.T) {
	resOnly := smallCfg()
	resOnly.PctUser = 100
	runCfg(t, resOnly, stm.Baseline(), 2)

	delAndUpdate := smallCfg()
	delAndUpdate.PctUser = 0
	runCfg(t, delAndUpdate, stm.Baseline(), 2)
}

func TestDeterministicSetup(t *testing.T) {
	mk := func() uint64 {
		b := NewWith(smallCfg())
		rt := stm.New(b.MemConfig(), stm.Baseline())
		b.Setup(rt)
		// Hash the first table's total capacity as a determinism probe.
		var sum uint64
		th := rt.Thread(0)
		th.Atomic(func(tx *stm.Tx) {
			for id := 1; id <= 16; id++ {
				if p, ok := mapGetForTest(tx, b, 0, uint64(id)); ok {
					sum += tx.Load(p+resNumTotal, stm.AccShared)
				}
			}
		})
		return sum
	}
	if mk() != mk() {
		t.Error("setup is not deterministic")
	}
}
