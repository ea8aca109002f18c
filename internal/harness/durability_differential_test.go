package harness

import (
	"testing"

	"repro/tm"
)

// durTune is the test-speed durability tuning: fsync elided (the crash
// is simulated in-process, where the page cache survives). Segments and
// checkpoint chunks keep their default sizes, at which many durable
// grid cells still rotate segments and dedupe chunks; internal/wal's
// tests cover both at small sizes.
func durTune() []tm.DurOption {
	return []tm.DurOption{tm.DurNoFsync()}
}

// TestDurabilityRestartContinues closes a durable runtime cleanly,
// reopens it via Recover, runs more transactions, crashes, and recovers
// again — the log must continue across incarnations (sequence numbers,
// segment indexes, checkpoint chain).
func TestDurabilityRestartContinues(t *testing.T) {
	w, err := tm.NewWorkload("tmkv")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := []tm.Option{tm.WithMemory(w.MemConfig()), tm.WithDurability(dir, durTune()...)}
	rt := tm.Open(opts...)
	w.Setup(rt)
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w.Run(rt, 1)
	sum1 := rt.Unwrap().Space().Checksum()
	if err := rt.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := rt.Close(); err != nil { // idempotent
		t.Fatalf("second close: %v", err)
	}

	rec, err := tm.Recover(dir, opts...)
	if err != nil {
		t.Fatalf("recover after clean close: %v", err)
	}
	if got := rec.Unwrap().Space().Checksum(); got != sum1 {
		t.Fatalf("recovered state after clean close %#x, want %#x", got, sum1)
	}
	// Run a second round of transactions on the recovered instance (a
	// fresh global block, so no knowledge of the workload's layout is
	// needed), then crash it.
	g := rec.AllocGlobal(64)
	th := rec.Thread(0)
	for round := 0; round < 8; round++ {
		th.Atomic(func(tx *tm.Tx) {
			for i := 0; i < g.Len(); i++ {
				g.Word(i).Store(tx, g.Word(i).Load(tx)+uint64(round*i+1))
			}
		})
	}
	sum2 := rec.Unwrap().Space().Checksum()
	rec.Crash()

	rec2, err := tm.Recover(dir, opts...)
	if err != nil {
		t.Fatalf("recover after crash: %v", err)
	}
	defer rec2.Close()
	if got := rec2.Unwrap().Space().Checksum(); got != sum2 {
		t.Fatalf("recovered state after second incarnation %#x, want %#x", got, sum2)
	}
}
