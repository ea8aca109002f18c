package tmkv

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/txlib"
	"repro/tm"
)

// open builds a runtime sized for the workload under the profile.
func open(t testing.TB, b *B, p tm.Profile) *tm.Runtime {
	t.Helper()
	return tm.Open(append(p.Options(), tm.WithMemory(b.MemConfig()))...)
}

// runOnce drives one full workload lifecycle and fails on any
// validation error or leaked orec lock.
func runOnce(t *testing.T, cfg Config, p tm.Profile, threads int) (*B, *tm.Runtime) {
	t.Helper()
	b := New(cfg)
	rt := open(t, b, p)
	b.Setup(rt)
	b.Run(rt, threads)
	if err := b.Validate(rt); err != nil {
		t.Fatalf("%s [%s, %d threads]: %v", cfg.Name, p.Name(), threads, err)
	}
	rt.Validate()
	return b, rt
}

func TestRegisteredVariants(t *testing.T) {
	for _, name := range []string{"tmkv", "tmkv-read", "tmkv-write"} {
		w, err := tm.NewWorkload(name)
		if err != nil {
			t.Fatalf("registry: %v", err)
		}
		if w.Name() != name {
			t.Errorf("workload %q reports name %q", name, w.Name())
		}
	}
}

func TestMixSumsValidated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad mix did not panic")
		}
	}()
	cfg := Small()
	cfg.ReadPct += 5
	New(cfg)
}

func TestRunAndValidateSingleThread(t *testing.T) {
	b, _ := runOnce(t, Small(), tm.Baseline(), 1)
	var effects uint64
	for i := range b.perTh {
		st := &b.perTh[i]
		effects += st.reads + st.updates + st.inserts + st.deletes + st.scans + st.misses
	}
	if effects != uint64(b.cfg.Ops) {
		t.Errorf("accounted %d ops, want %d", effects, b.cfg.Ops)
	}
}

// TestDedupShares asserts the venti-style content map actually shares
// blocks: the store must hold fewer unique blocks than the index holds
// block references.
func TestDedupShares(t *testing.T) {
	b, rt := runOnce(t, Small(), tm.Baseline(), 1)
	th := rt.Unwrap().Thread(0)
	var unique, refs int
	th.Atomic(func(tx *stm.Tx) {
		unique = txlib.HTSize(tx, b.store.dedup, txlib.TM)
		txlib.HTForEach(tx, b.store.dedup, txlib.TM, func(_ mem.Addr, _ int, data uint64) bool {
			refs += int(tx.Load(mem.Addr(data)+brRef, txlib.TM))
			return true
		})
	})
	if unique == 0 || refs == 0 {
		t.Fatalf("empty store after run (unique %d, refs %d)", unique, refs)
	}
	if unique >= refs {
		t.Errorf("no dedup sharing: %d unique blocks for %d references", unique, refs)
	}
}

// TestCaptureMechanismsLightUp is the acceptance property of this
// scenario: under runtime capture the allocation-log and stack checks
// must elide barriers, under compiler elision the provenance
// annotations must, and under the definitely-shared extension the
// hand-instrumented accesses must bypass the checks.
func TestCaptureMechanismsLightUp(t *testing.T) {
	cfg := Small()

	_, rt := runOnce(t, cfg, tm.RuntimeAll(tm.LogTree), 1)
	s := rt.Snapshot().Stats
	if s.ReadElHeap == 0 || s.WriteElHeap == 0 {
		t.Errorf("runtime capture elided no heap barriers: reads %d, writes %d", s.ReadElHeap, s.WriteElHeap)
	}
	if s.ReadElStack == 0 || s.WriteElStack == 0 {
		t.Errorf("runtime capture elided no stack barriers: reads %d, writes %d", s.ReadElStack, s.WriteElStack)
	}

	_, rt = runOnce(t, cfg, tm.CompilerElision(), 1)
	s = rt.Snapshot().Stats
	if s.ReadElStatic == 0 || s.WriteElStatic == 0 {
		t.Errorf("compiler elided no barriers statically: reads %d, writes %d", s.ReadElStatic, s.WriteElStatic)
	}

	skip := tm.RuntimeAll(tm.LogTree).With(tm.WithSkipSharedChecks()).Named("runtime+skipshared")
	_, rt = runOnce(t, cfg, skip, 1)
	s = rt.Snapshot().Stats
	if s.ReadSkipShared == 0 || s.WriteSkipShared == 0 {
		t.Errorf("definitely-shared extension bypassed no checks: reads %d, writes %d", s.ReadSkipShared, s.WriteSkipShared)
	}
}

// TestElisionClaimsSound runs the soundness oracle: every statically
// elided access must genuinely be captured, or WithVerifyElision
// panics. This guards the Prov annotations on the whole store.
func TestElisionClaimsSound(t *testing.T) {
	p := tm.CompilerElision().With(tm.WithVerifyElision())
	runOnce(t, Small(), p, 1)
	runOnce(t, Small(), p, 2)
}

// TestDeterministicSingleThread runs the same configuration twice and
// compares full address-space checksums: the scenario must be
// bit-for-bit reproducible at one thread.
func TestDeterministicSingleThread(t *testing.T) {
	_, rt1 := runOnce(t, Small(), tm.Baseline(), 1)
	_, rt2 := runOnce(t, Small(), tm.Baseline(), 1)
	c1 := rt1.Unwrap().Space().Checksum()
	c2 := rt2.Unwrap().Space().Checksum()
	if c1 != c2 {
		t.Errorf("two identical runs left different spaces: %#x vs %#x", c1, c2)
	}
}

// TestConcurrentStress is the short multi-goroutine stress run the
// race CI job leans on: several workers churn one store, then the full
// cross-view validation must still hold.
func TestConcurrentStress(t *testing.T) {
	cfg := Small()
	cfg.Ops = 2048
	for _, threads := range []int{2, 4} {
		runOnce(t, cfg, tm.Baseline(), threads)
		runOnce(t, cfg, tm.RuntimeAll(tm.LogTree), threads)
	}
}

// TestScopedSetupKeepsChecksum: Setup inside thread 0's Exclusive
// scope leaves the space the same setup leaves with barriers, for every
// registered configuration and the served ones, under the benchmark
// rig's two perf profiles; and the scope runs no barrier.
func TestScopedSetupKeepsChecksum(t *testing.T) {
	for _, cfg := range []Config{Mixed(), ReadHeavy(), WriteHeavy(), ServeMix(), ServeReadMix()} {
		for _, p := range []tm.Profile{tm.Baseline().Perf(), tm.RuntimeAll(tm.LogTree).Perf()} {
			t.Run(cfg.Name+"/"+p.Name(), func(t *testing.T) {
				b := New(cfg)
				rt := open(t, b, p)
				b.Setup(rt)
				ref := open(t, b, p)
				cfg.setup(ref.Unwrap().Thread(0))
				if c, r := rt.Unwrap().Clock(), ref.Unwrap().Clock(); c != 0 || r == 0 {
					t.Fatalf("clocks %d scoped, %d with barriers: want 0 and more", c, r)
				}
				if got, want := rt.Unwrap().Space().Checksum(), ref.Unwrap().Space().Checksum(); got != want {
					t.Fatalf("scoped Setup checksum %#x, want %#x", got, want)
				}
			})
		}
	}
}
