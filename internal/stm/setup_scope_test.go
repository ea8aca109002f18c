package stm_test

// The registered workloads and serve backends run Setup inside thread
// 0's Exclusive scope. These tests prove, per workload, that the scope
// ran no barrier, and that a durable Setup run in it recovers. That the
// scope changes nothing Setup leaves in the space is checked where the
// workloads live (internal/stamp/all, tmkv, tmmsg).

import (
	"testing"

	_ "repro/internal/scenarios/tmkv"
	_ "repro/internal/scenarios/tmmsg"
	_ "repro/internal/stamp/all"
	"repro/tm"
	"repro/tm/serve"
)

// rigProfiles are the benchmark rig's two perf profiles: the
// baseline's elides no store and logs no allocation, the capture
// profile's elides stack and heap stores.
func rigProfiles() []tm.Profile {
	return []tm.Profile{tm.Baseline().Perf(), tm.RuntimeAll(tm.LogTree).Perf()}
}

// setupRequests sizes a serve backend's space for Setup and a short
// stream.
const setupRequests = 1024

// checkNoBarrier fails unless rt's clock and orecs are untouched and,
// under the counting engine, no full barrier was counted.
func checkNoBarrier(t *testing.T, rt *tm.Runtime, p tm.Profile) {
	t.Helper()
	srt := rt.Unwrap()
	if c := srt.Clock(); c != 0 {
		t.Errorf("clock %d after Setup, want 0", c)
	}
	if n := srt.OrecsSet(); n != 0 {
		t.Errorf("%d orecs set after Setup, want 0", n)
	}
	s := rt.Snapshot().Stats
	if p.Name() == tm.Counting().Name() && (s.ReadFull != 0 || s.WriteFull != 0) {
		t.Errorf("Setup counted %d full reads and %d full writes, want 0", s.ReadFull, s.WriteFull)
	}
}

// TestScopedSetupRunsNoBarrier: every registered workload's and serve
// backend's Setup leaves the clock at 0, every orec at 0 and, counted,
// no full barrier.
func TestScopedSetupRunsNoBarrier(t *testing.T) {
	for _, p := range []tm.Profile{tm.Counting(), tm.RuntimeAll(tm.LogTree).Perf()} {
		for _, name := range tm.Workloads() {
			t.Run(p.Name()+"/"+name, func(t *testing.T) {
				t.Parallel()
				w, err := tm.NewWorkload(name)
				if err != nil {
					t.Fatal(err)
				}
				rt := tm.Open(append(p.Options(), tm.WithMemory(w.MemConfig()))...)
				defer rt.Close()
				w.Setup(rt)
				checkNoBarrier(t, rt, p)
			})
		}
		for _, name := range serve.Backends() {
			t.Run(p.Name()+"/"+name, func(t *testing.T) {
				be, err := serve.New(name)
				if err != nil {
					t.Fatal(err)
				}
				rt := tm.Open(append(p.Options(), tm.WithMemory(be.MemConfig(1, setupRequests)))...)
				defer rt.Close()
				be.Setup(rt)
				checkNoBarrier(t, rt, p)
			})
		}
	}
}

// TestScopedSetupDurableRecover: a durable serve backend whose Setup ran
// in the scope, as serve.NewServer runs it, and crashed right after
// recovers to the same space.
func TestScopedSetupDurableRecover(t *testing.T) {
	for _, p := range rigProfiles() {
		for _, name := range serve.Backends() {
			t.Run(p.Name()+"/"+name, func(t *testing.T) {
				be, err := serve.New(name)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				opts := append(p.Options(), tm.WithMemory(be.MemConfig(1, setupRequests)),
					tm.WithDurability(dir, tm.DurNoFsync()))
				rt := tm.Open(opts...)
				rt.Unwrap().Thread(0).Deferred(func() { be.Setup(rt) })
				if err := rt.Sync(); err != nil {
					t.Fatal(err)
				}
				if c := rt.Unwrap().Clock(); c != 0 {
					t.Fatalf("clock %d after Setup, want 0", c)
				}
				sum := rt.Unwrap().Space().Checksum()
				rt.Crash()
				rec, err := tm.Recover(dir, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer rec.Close()
				if got := rec.Unwrap().Space().Checksum(); got != sum {
					t.Fatalf("recovered checksum %#x, want %#x", got, sum)
				}
			})
		}
	}
}
