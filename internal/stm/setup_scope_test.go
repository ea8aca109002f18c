package stm_test

// The registered workloads and serve backends run Setup inside thread
// 0's Exclusive scope, and the workloads run Validate in it too. These
// tests prove, per workload, that the scope ran no barrier, that a
// durable Setup run in it recovers, and that a scoped Validate reaches
// a barriered one's verdict. That the scope changes nothing Setup
// leaves in the space is checked where the workloads live
// (internal/stamp/all, tmkv, tmmsg).

import (
	"fmt"
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

// validateThreads is the number of workers each workload's Run uses
// before its Validate is checked: enough that thread 0 has a quiescent
// sibling when Validate's scope starts.
const validateThreads = 2

// runWorkload opens a runtime for the named workload under p, runs its
// Setup and a validateThreads-thread Run, and returns both.
func runWorkload(t *testing.T, p tm.Profile, name string) (tm.Workload, *tm.Runtime) {
	t.Helper()
	w, err := tm.NewWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	rt := tm.Open(append(p.Options(), tm.WithMemory(w.MemConfig()))...)
	t.Cleanup(func() { rt.Close() })
	w.Setup(rt)
	w.Run(rt, validateThreads)
	return w, rt
}

// barrierState is what any barrier leaves behind: the clock, every
// orec, and the counted full barriers.
type barrierState struct {
	clock, orecs, readFull, writeFull uint64
}

func barriers(rt *tm.Runtime) barrierState {
	s := rt.Snapshot().Stats
	return barrierState{rt.Unwrap().Clock(), rt.Unwrap().OrecsSum(), s.ReadFull, s.WriteFull}
}

// TestScopedValidateRunsNoBarrier: after a two-thread Run of every
// registered workload, Validate bumps no clock and acquires no orec
// (every orec holds what it held) and, counted, runs no full read or
// write barrier, so it logs no read either.
func TestScopedValidateRunsNoBarrier(t *testing.T) {
	for _, p := range []tm.Profile{tm.Counting(), tm.RuntimeAll(tm.LogTree).Perf()} {
		for _, name := range tm.Workloads() {
			t.Run(p.Name()+"/"+name, func(t *testing.T) {
				t.Parallel()
				w, rt := runWorkload(t, p, name)
				before := barriers(rt)
				if err := w.Validate(rt); err != nil {
					t.Fatal(err)
				}
				if after := barriers(rt); after != before {
					t.Errorf("Validate moved the barrier state from %+v to %+v", before, after)
				}
			})
		}
	}
}

// TestScopedValidateSameVerdict: after a two-thread Run of every
// registered workload, Validate in its scope returns the verdict that
// a barriered Validate returns, and leaves the same space. The
// barriered pass runs first, on the state Run left, and the scoped
// pass on the state the barriered one left; a scoped load or store
// that moved a word the walk reads or writes shows as a different
// verdict or checksum. (Validate only reads a workload's Go-side state,
// so one instance can validate twice.)
func TestScopedValidateSameVerdict(t *testing.T) {
	for _, p := range rigProfiles() {
		for _, name := range tm.Workloads() {
			t.Run(p.Name()+"/"+name, func(t *testing.T) {
				t.Parallel()
				w, rt := runWorkload(t, p, name)
				space := rt.Unwrap().Space()
				verdict := func(scoped bool) (string, uint64) {
					var err error
					if scoped {
						err = w.Validate(rt)
					} else {
						rt.Unwrap().Thread(0).Barriered(func() { err = w.Validate(rt) })
					}
					return fmt.Sprint(err), space.Checksum()
				}
				wantErr, wantSum := verdict(false)
				if gotErr, gotSum := verdict(true); gotErr != wantErr || gotSum != wantSum {
					t.Fatalf("scoped Validate: %s, checksum %#x; barriered: %s, checksum %#x",
						gotErr, gotSum, wantErr, wantSum)
				}
			})
		}
	}
}
