package harness

// The differential grid. Capture analysis changes which barriers run,
// never what the program computes (Sec. 3), so every optimization
// profile, barrier engine, phase declaration and the redo log must
// drive a deterministic workload to the bit-identical
// final state (mem.Space.Checksum). The grid-shaped tests at the end of
// this file are views over one memoised table of cells — (workload,
// profile variant, threads).

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/tm"

	_ "repro/internal/scenarios/tmkv"
	_ "repro/internal/scenarios/tmmsg"
	_ "repro/internal/stamp/all"
)

// TestMain makes the spine the default extent of this package: `go test
// ./...` must stay fast enough that people run it, and the full cross
// product is one command away — `go test -short=false
// ./internal/harness`, which CI runs on every push. An explicit -short
// on the command line, either way, wins.
func TestMain(m *testing.M) {
	flag.Parse()
	explicit := false
	flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "test.short" })
	if !explicit {
		_ = flag.Set("test.short", "true") // a registered bool flag accepts "true"
	}
	m.Run()
}

// namedProfiles is the cross-profile grid: every preset the package
// exports plus the two documented combinations. Index 0 is the grid's
// reference.
func namedProfiles() []tm.Profile {
	return []tm.Profile{
		tm.Baseline(),
		tm.Counting(),
		tm.RuntimeAll(tm.LogTree),
		tm.RuntimeWrite(tm.LogTree),
		tm.RuntimeHeapWrite(tm.LogTree),
		tm.CompilerElision(),
		tm.CompilerElision().With(
			tm.WithRuntimeCapture(tm.StackAndHeap, tm.StackAndHeap)).Named("compiler+runtime"),
		tm.RuntimeAll(tm.LogTree).With(tm.WithSkipSharedChecks()).Named("runtime+skipshared"),
	}
}

// perfProfiles returns the performance builds of the named profiles —
// the ones that actually compile to the specialized fast-path engines.
// Counting is left out: under PerfMode it is a debug combination that
// falls back to the reference chain.
func perfProfiles() []tm.Profile {
	var ps []tm.Profile
	for _, p := range namedProfiles() {
		if p.Name() != tm.Counting().Name() {
			ps = append(ps, perf(p))
		}
	}
	return ps
}

// variant derives a profile from a base one. A cell is memoised under
// its profile's name, so every variant renames what it wraps.
func variant(suffix string, opts ...tm.Option) func(tm.Profile) tm.Profile {
	return func(p tm.Profile) tm.Profile { return p.With(opts...).Named(p.Name() + suffix) }
}

var (
	asIs = variant("")
	perf = variant("-perf", tm.WithPerfMode())
	// The forced reference chain. On an instrumented profile it is the
	// same function pair under another name (internal/stm's
	// TestEngineSelection pins that), so the grid forces it only on perf
	// profiles, where it is a distinct configuration.
	forceGeneric = variant("+generic", tm.WithEngine(tm.EngineGeneric))
	// Every transaction starts on the zero-write-setup chain and upgrades
	// in-flight on its first shared store — the maximal-stress shape for
	// the upgrade path, since none of the workloads are read-only
	// throughout.
	readMostly = variant("+readmostly", tm.WithReadMostly())
	// The canonical phase declaration (PhaseRegimeSpecs — the one source
	// of truth every phase-hint A/B shares). Workloads that never hint
	// run entirely in the default phase, where the declaration alone must
	// change nothing; tmmsg's driver hints every operation, so its runs
	// cross engines mid-run.
	phased = variant("+phases", tm.WithPhases(PhaseRegimeSpecs()...))
)

// gridCell is one configuration a workload runs under. A durable cell
// logs to a scratch directory, is killed after the run and recovered
// from disk; a contended one also checkpoints in a loop on a goroutine
// of its own while the workload runs, so fuzzy checkpoints race live
// transactions.
type gridCell struct {
	p       tm.Profile
	threads int
	durable bool
}

// axis is one variant ranged over the profiles it applies to.
type axis struct{ cells []gridCell }

func newAxis(threads int, durable bool, ps []tm.Profile, variants ...func(tm.Profile) tm.Profile) *axis {
	ax := &axis{}
	for _, v := range variants {
		for _, p := range ps {
			if p = v(p); durable {
				p = p.Named(p.Name() + "+durable") // never the memo key of the non-durable cell
			}
			ax.cells = append(ax.cells, gridCell{p, threads, durable})
		}
	}
	return ax
}

var (
	runtimeTree = tm.RuntimeAll(tm.LogTree)
	allProfiles = append(namedProfiles(), perfProfiles()...)

	// reference is the one run per workload that every one-thread cell
	// is compared with; the as-is axis ranges over the other profiles.
	reference  = gridCell{tm.Baseline(), 1, false}
	axAsIs     = newAxis(1, false, namedProfiles()[1:], asIs)
	axPerf     = newAxis(1, false, perfProfiles(), asIs)
	axReadMost = newAxis(1, false, allProfiles, readMostly)
	axPhased   = newAxis(1, false, allProfiles, phased)
	axDurable  = newAxis(1, true, namedProfiles(), asIs)

	// The four-thread axes. runtimeTree is at once the instrumented
	// engine and the unhinted arm, so two of them name it and it runs
	// once per workload.
	axPar         = newAxis(4, false, []tm.Profile{tm.Baseline(), runtimeTree}, asIs)
	axParEngine   = newAxis(4, false, []tm.Profile{perf(runtimeTree), forceGeneric(perf(runtimeTree)), runtimeTree}, asIs)
	axParReadMost = newAxis(4, false, []tm.Profile{perf(runtimeTree), runtimeTree}, readMostly)
	axParPhased   = newAxis(4, false, []tm.Profile{perf(runtimeTree), forceGeneric(perf(runtimeTree)), runtimeTree}, phased)
	axParDurable  = newAxis(4, true, []tm.Profile{runtimeTree}, asIs)

	// grid lists every axis; an axis's position shifts its spine rotation.
	grid = []*axis{axAsIs, axPerf, axReadMost, axPhased, axDurable,
		axPar, axParEngine, axParReadMost, axParPhased, axParDurable}
)

// extent returns the cells of ax that run on bench: all of them in the
// full grid, the spine's pick under -short (this package's default).
func extent(bench string, ax *axis) []gridCell {
	if testing.Short() {
		return spine(bench, ax)
	}
	return ax.cells
}

// spine gives every workload one profile per axis, rotating with the
// workload's position so that every (workload, axis) pair and — while
// no axis ranges over more profiles than there are workloads, which
// TestGridSpineCovers checks — every (profile, axis) pair occurs. The
// axis's own position shifts the rotation, so one workload meets
// different profiles on different axes.
func spine(bench string, ax *axis) []gridCell {
	i := slices.Index(AllWorkloads(), bench) + slices.Index(grid, ax)
	return ax.cells[i%len(ax.cells):][:1]
}

type cellKey struct {
	bench, profile string
	threads        int
}

// cells memoises the grid: a cell several views ask for runs once.
var cells sync.Map // cellKey → func() (uint64, error)

// cell returns the memoised final-state fingerprint of bench under c.
// It reports failure as an error rather than failing a test, because
// the first view to ask is not the only one that needs the verdict.
func cell(bench string, c gridCell) (uint64, error) {
	run, _ := cells.LoadOrStore(cellKey{bench, c.p.Name(), c.threads}, sync.OnceValues(func() (uint64, error) {
		sum, err := runCell(bench, c)
		if err != nil {
			err = fmt.Errorf("%s [%s, %d threads]: %w", bench, c.p.Name(), c.threads, err)
		}
		return sum, err
	}))
	return run.(func() (uint64, error))()
}

// runCell drives one full workload lifecycle: open, set up, run,
// validate, fingerprint, close — and, for a durable cell, crash and
// recover in between, asserting the recovered space is bit-identical
// to the crashed instance's in-memory state.
func runCell(bench string, c gridCell) (uint64, error) {
	w, err := tm.NewWorkload(bench)
	if err != nil {
		return 0, err
	}
	opts := append(c.p.Options(), tm.WithMemory(w.MemConfig()))
	var dir string
	if c.durable {
		if dir, err = os.MkdirTemp("", "grid-wal-"); err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		opts = append(opts, tm.WithDurability(dir, durTune()...))
	}
	rt := tm.Open(opts...)
	w.Setup(rt)
	// Setup mutates the space through Runtime.Space(), which is not
	// journaled: per the recovery contract, checkpoint before the
	// replayable phase begins (a no-op for a non-durable runtime).
	if err := rt.Checkpoint(); err != nil {
		return 0, fmt.Errorf("checkpoint after setup: %w", err)
	}
	if c.durable && c.threads > 1 {
		err = runCheckpointing(rt, func() { w.Run(rt, c.threads) })
	} else {
		w.Run(rt, c.threads)
	}
	if err != nil {
		rt.Close()
		return 0, err
	}
	if err := w.Validate(rt); err != nil {
		rt.Close()
		return 0, err
	}
	rt.Validate() // no orec may stay locked after the threads joined
	var sum uint64
	// A contended non-durable state is scheduling-dependent and compared
	// with nothing.
	if c.threads == 1 || c.durable {
		sum = rt.Unwrap().Space().Checksum()
	}
	if c.durable {
		rt.Crash()
		if rt, err = tm.Recover(dir, opts...); err != nil {
			return 0, fmt.Errorf("recover: %w", err)
		}
		rt.Validate()
		if got := rt.Unwrap().Space().Checksum(); got != sum {
			rt.Close()
			return 0, fmt.Errorf("recovered state %#x, crashed instance had %#x", got, sum)
		}
	}
	if err := rt.Close(); err != nil {
		return 0, fmt.Errorf("closing runtime: %w", err)
	}
	return sum, nil
}

// runCheckpointing calls run while another goroutine checkpoints rt
// in a loop, and fails unless a checkpoint completed while run was
// live.
func runCheckpointing(rt *tm.Runtime, run func()) error {
	var stop atomic.Bool
	done := make(chan error, 1)
	during := 0 // checkpoints that completed before run returned; read after done
	go func() {
		for !stop.Load() {
			if err := rt.Checkpoint(); err != nil {
				done <- fmt.Errorf("concurrent checkpoint: %w", err)
				return
			}
			if !stop.Load() {
				during++
			}
		}
		done <- nil
	}()
	run()
	stop.Store(true)
	if err := <-done; err != nil {
		return err
	}
	if during == 0 {
		return fmt.Errorf("no checkpoint completed while the workload ran")
	}
	return nil
}

// view runs one subtest per workload over the extent of the given
// axes. Every cell must validate and leak no orec lock; a one-thread
// cell must also reach the reference's final state. Contended final
// states are scheduling-dependent and are not compared.
func view(t *testing.T, benches []string, axes ...*axis) {
	for _, bench := range benches {
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			ref, err := cell(bench, reference)
			if err != nil {
				t.Fatal(err)
			}
			for _, ax := range axes {
				for _, c := range extent(bench, ax) {
					if sum, err := cell(bench, c); err != nil {
						t.Error(err)
					} else if c.threads == 1 && sum != ref {
						t.Errorf("%s under %s: final state %#x, want %#x (the %s reference)",
							bench, c.p.Name(), sum, ref, reference.p.Name())
					}
				}
			}
		})
	}
}

// TestGridSpineCovers walks the extent table without running anything.
// The spine gives every registered workload (the ones test files
// register included) a cell on every axis by construction; it must
// also reach every profile of every axis, and the one-thread axes must
// between them hold every named profile under four variants and every
// perf profile under three — so that registering a workload or adding
// a profile cannot silently fall out of the default `go test ./...`.
func TestGridSpineCovers(t *testing.T) {
	benches := AllWorkloads()
	for _, b := range tm.Workloads() {
		if !slices.Contains(benches, b) {
			t.Errorf("registered workload %s is not in the grid's workload list", b)
		}
	}
	oneThread := map[string]bool{reference.p.Name(): true}
	for k, ax := range grid {
		picked := map[string]bool{}
		for _, bench := range benches {
			c := spine(bench, ax)[0]
			picked[c.p.Name()] = true
			if c.threads == 1 {
				oneThread[c.p.Name()] = true
			}
		}
		if len(picked) != len(ax.cells) {
			t.Errorf("axis %d (%s, …): the spine reaches %d of %d profiles over %d workloads",
				k, ax.cells[0].p.Name(), len(picked), len(ax.cells), len(benches))
		}
	}
	// as-is, read-mostly, phased and durable on the named profiles;
	// as-is, read-mostly and phased on the perf ones.
	if want := 4*len(namedProfiles()) + 3*len(perfProfiles()); len(oneThread) != want {
		t.Errorf("the spine runs %d distinct one-thread cells, want %d", len(oneThread), want)
	}
}

// TestDifferentialProfiles runs every registered workload (the STAMP
// ports, the tmkv and tmmsg scenario packs, and anything test files
// registered) under the named profiles at one thread. A mismatch with
// the reference means an elision decided wrongly — precisely the bug
// class the paper's conservative capture analysis must exclude.
func TestDifferentialProfiles(t *testing.T) { view(t, AllWorkloads(), axAsIs) }

// TestDifferentialParallelNoLeaks repeats a contended slice of the
// grid at four threads: validation must pass and no orec lock may
// leak.
func TestDifferentialParallelNoLeaks(t *testing.T) { view(t, AllWorkloads(), axPar) }

// TestEngineEquivalence pins the instrumented engines: the chain a
// named profile compiles to must compute what the reference computes.
// It reads the cells TestDifferentialProfiles reads; the half it used
// to add — the same profile on the forced-generic chain, state and
// counters — compared a function pair with itself and is now the
// identity assertion in internal/stm's TestEngineSelection.
func TestEngineEquivalence(t *testing.T) { view(t, AllWorkloads(), axAsIs) }

// TestEngineEquivalencePerf is the engine differential for the perf
// builds: a divergence means a specialized fast path dropped or
// reordered a check its profile requires.
func TestEngineEquivalencePerf(t *testing.T) { view(t, AllWorkloads(), axPerf) }

// TestEngineParallelNoLeaks runs each engine family contended — the
// specialized fast path, the forced reference chain, the counting
// engine: none may fail validation or leak a lock.
func TestEngineParallelNoLeaks(t *testing.T) { view(t, AllWorkloads(), axParEngine) }

// TestReadMostlyEquivalence is the upgrade-path differential, over the
// instrumented and the perf profiles: a divergence means the in-flight
// upgrade lost or replayed a memory effect.
func TestReadMostlyEquivalence(t *testing.T) { view(t, AllWorkloads(), axReadMost) }

// TestReadMostlyParallelNoLeaks contends the read-mostly engines: no
// orec lock may leak across the repeated mid-transaction engine swaps.
func TestReadMostlyParallelNoLeaks(t *testing.T) { view(t, AllWorkloads(), axParReadMost) }

// TestEngineEquivalencePhased extends the engine differential across
// mid-run phase switches, per-phase counting engines and per-phase
// specialized engines alike: a divergence means a switch carried state
// from one engine's logs into another's.
func TestEngineEquivalencePhased(t *testing.T) { view(t, AllWorkloads(), axPhased) }

// TestPhaseHintsPreserveState pins that phase hints are a pure
// performance lever on the workloads that give them: the tmmsg
// variants must reach the same final state with and without the phase
// declaration.
func TestPhaseHintsPreserveState(t *testing.T) {
	view(t, []string{"tmmsg", "tmmsg-pub", "tmmsg-sub"}, axAsIs, axPhased)
}

// TestEnginePhasedParallelNoLeaks contends the phased engines: no orec
// lock may leak while threads switch engines mid-run, specialized and
// forced-generic alike.
func TestEnginePhasedParallelNoLeaks(t *testing.T) { view(t, AllWorkloads(), axParPhased) }

// TestDurabilityCrashReplayDifferential is the crash-replay
// differential: three states must be bit-identical — the non-durable
// reference, the crashed durable instance, and the space recovered
// from disk — proving both that durability never changes what the
// program computes and that checkpoint + redo-tail replay loses
// nothing.
func TestDurabilityCrashReplayDifferential(t *testing.T) { view(t, AllWorkloads(), axDurable) }

// TestDurabilityCrashReplayParallel repeats the crash-replay check
// contended, with fuzzy checkpoints racing live transactions. The
// assertions are the ones inside the cell: a checkpoint completed
// while the workload ran, and recovery reproduces the crashed instance
// exactly.
func TestDurabilityCrashReplayParallel(t *testing.T) {
	view(t, []string{"ssca2", "tmkv", "tmmsg"}, axParDurable)
}
