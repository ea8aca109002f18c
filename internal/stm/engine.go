package stm

import (
	"strings"

	"repro/internal/mem"
)

// This file is the barrier engine: the per-profile "compiled" Load and
// Store implementations the paper's Sec. 3.2 compiler would emit. The
// paper's barrier is one decision procedure — Fig. 2's is_captured()
// fast path in front of one full barrier — and this package spells it
// out in exactly two chains:
//
//   - the interpreting chain (loadGeneric/storeGeneric, barrier.go)
//     re-tests the cached configuration booleans on every access and is
//     the only chain that keeps statistics. It is both the reference
//     the differentials compare against ("generic") and the engine of
//     every instrumented profile ("counting").
//   - the perf chain in this file: stats-free functions whose bodies
//     contain only the checks the profile enables, with the allocation
//     log's filters inlined into them.
//
// Read-mostly is NOT a chain. It is a mode of the two slow paths every
// chain bottoms out in (readFull skips the read-set append while the
// attempt is unlogged, writeFull upgrades first; barrier.go), so a
// read-mostly engine is the full engine's own function pair plus
// rm: true.
//
// Nor is the exclusive pair at the end of this file an engine: no
// profile compiles to it. It replaces whatever pair the phase compiled
// while a thread is the only one transacting, inside Thread.Exclusive
// (set-up and validation code), and never reaches readFull or
// writeFull.
//
// Why the perf chain is eight flat functions and not one closure or
// one generic instantiation — measured on benchmark/run.sh's stm-closed
// workload, 4 interleaved parent/change rounds, go1.24:
//
//   - Routing every perf profile through one stats-free closure chain
//     that re-tests the baked-in configuration drops capture_speedup
//     from 1.046/1.043/1.038/1.001 to 0.937/0.932/0.923/0.944
//     (0.940/0.948/0.939/0.963 with the heap probe's guard kept
//     inline): the elision stops paying for itself.
//   - A chain[P probe, M mode] type-parameterized engine is worse still:
//     a method call on a type parameter compiles to a dictionary-
//     indirect call even when the shape is unique, the instantiation
//     handed out as a func value is a wrapper around the shape function,
//     and the probe method wrapping Tree.Contains costs 81 against the
//     inliner's budget of 80.
//
// The flat functions depend on onTxStack, inNursery, inAllocZone,
// inLastHit, storeCaptured and Space.Load/Store/StorePlain being
// inlined; CI's check job pins that (storeCaptured costs 78 of 80). A
// heap access tests the stack range, then the two nursery runs, then
// the allocation log's zone summary; inside a logged zone it tests the
// block the last probe found and only then probes the log (probeAlog,
// a call: the table lookup and the hit's update cost 101). The zone
// test gets an if of its own so that its miss branches straight to the
// full barrier; merged into one condition with the call, the compiler
// materializes the condition as a bool and tests it again. A
// transaction whose blocks all sit in runs never probes the log.

// loadFn and storeFn are the barrier entry points an engine provides.
// They receive the Tx explicitly so engines can be plain functions
// (method expressions and closures both fit).
type loadFn func(tx *Tx, a mem.Addr, ac Acc) uint64
type storeFn func(tx *Tx, a mem.Addr, val uint64, ac Acc)

// engine is one compiled barrier implementation, selected per phase.
type engine struct {
	name  string
	load  loadFn
	store storeFn

	// rm marks a read-mostly engine: attempts begin in unlogged mode
	// (beginTop) and the first store that needs the full write barrier
	// upgrades them (writeFull). The function pair is the one the same
	// profile compiles to with ReadMostly off.
	rm bool
}

// genericEngine is the reference chain under its own name: forced via
// OptConfig.ForceGeneric (tm.WithEngine) for differential testing and
// selected automatically for debug configurations the perf engines do
// not model.
func genericEngine() *engine {
	return &engine{name: "generic", load: (*Tx).loadGeneric, store: (*Tx).storeGeneric}
}

// newEngine compiles the optimization profile into a barrier engine:
//
//   - "generic"   — the interpreting chain (forced, the debug oracles
//     under PerfMode, and Annotations under PerfMode)
//   - "counting"  — the same chain, for every profile that keeps
//     statistics (PerfMode off)
//   - "perf-*"    — specialized fast paths with no statistics code and
//     the capture probe inlined
//   - "readmostly" / "perf-readmostly" — the counting / perf engine of
//     the same profile, run in read-mostly mode
func newEngine(cfg OptConfig) *engine {
	if cfg.ReadMostly && !cfg.Counting && !cfg.VerifyElision {
		// The counting/verification oracles must observe every access
		// logged, so they win over ReadMostly. A forced-generic
		// read-mostly profile keeps the "generic" name and interprets the
		// same mode, so the differentials compare one specification.
		full := cfg
		full.ReadMostly = false
		e := newEngine(full)
		e.rm = true
		switch {
		case cfg.ForceGeneric: // stays "generic"
		case cfg.PerfMode:
			e.name = "perf-readmostly"
		default:
			e.name = "readmostly"
		}
		return e
	}
	if cfg.ForceGeneric {
		return genericEngine()
	}
	if !cfg.PerfMode {
		// Statistics are on: the interpreting chain carries all the
		// accounting, so the perf engines never need a stats branch.
		return &engine{name: "counting", load: (*Tx).loadGeneric, store: (*Tx).storeGeneric}
	}
	if cfg.Counting || cfg.VerifyElision || cfg.Annotations {
		// PerfMode combined with the counting/verification oracles is a
		// debug configuration, and the private-log probe sits between
		// the capture checks and the full barrier, where no flat fast
		// path can wrap it. The reference chain models both exactly and,
		// with PerfMode's keepStats off, adds to no barrier counter.
		return genericEngine()
	}
	return newPerfEngine(cfg)
}

// newPerfEngine builds the specialized performance engine for cfg: the
// profile shapes (the paper's evaluated configurations) map to flat
// hand-specialized functions, with prologues for the compiler and
// definitely-shared knobs.
func newPerfEngine(cfg OptConfig) *engine {
	load := perfLoadCore(cfg.Read)
	store := perfStoreCore(cfg.Write)
	name := perfName(cfg)

	// The definitely-shared extension bypasses the capture checks for
	// ProvShared accesses; the compiler optimization statically elides
	// provably-captured ones. Both compose as prologues to the core.
	if cfg.SkipSharedChecks {
		load, store = withSkipShared(load, store)
	}
	if cfg.Compiler {
		load, store = withStaticElide(load, store)
	}
	return &engine{name: name, load: load, store: store}
}

// perfName derives the engine label from the profile shape.
func perfName(cfg OptConfig) string {
	var parts []string
	if cfg.Compiler {
		parts = append(parts, "compiler")
	}
	r, w := checksDesc(cfg.Read), checksDesc(cfg.Write)
	log := ""
	if cfg.Read.Heap || cfg.Write.Heap {
		log = "-tree" // the allocation log a heap probe searches
	}
	switch {
	case r == "" && w == "":
	case r == w:
		parts = append(parts, "rw-"+r+log)
	case r == "":
		parts = append(parts, "w-"+w+log)
	case w == "":
		parts = append(parts, "r-"+r+log)
	default:
		parts = append(parts, "r-"+r+"+w-"+w+log)
	}
	if cfg.SkipSharedChecks {
		parts = append(parts, "skipshared")
	}
	if len(parts) == 0 {
		return "perf-noinstr"
	}
	return "perf-" + strings.Join(parts, "+")
}

func checksDesc(b BarrierOpt) string {
	switch {
	case b.Stack && b.Heap:
		return "stack-heap"
	case b.Stack:
		return "stack"
	case b.Heap:
		return "heap"
	}
	return ""
}

// --- Flat load fast paths ---

func perfLoadFull(tx *Tx, a mem.Addr, _ Acc) uint64 { return tx.readFull(a) }

func perfLoadStack(tx *Tx, a mem.Addr, _ Acc) uint64 {
	if tx.onTxStack(a) {
		return tx.th.rt.space.Load(a)
	}
	return tx.readFull(a)
}

func perfLoadStackHeap(tx *Tx, a mem.Addr, _ Acc) uint64 {
	if tx.onTxStack(a) || tx.inNursery(a) {
		return tx.th.rt.space.Load(a)
	}
	if tx.inAllocZone(a) {
		if tx.inLastHit(a) || tx.probeAlog(a) {
			return tx.th.rt.space.Load(a)
		}
	}
	return tx.readFull(a)
}

func perfLoadHeap(tx *Tx, a mem.Addr, _ Acc) uint64 {
	if tx.inNursery(a) {
		return tx.th.rt.space.Load(a)
	}
	if tx.inAllocZone(a) {
		if tx.inLastHit(a) || tx.probeAlog(a) {
			return tx.th.rt.space.Load(a)
		}
	}
	return tx.readFull(a)
}

func perfLoadCore(b BarrierOpt) loadFn {
	switch {
	case b.Stack && b.Heap:
		return perfLoadStackHeap
	case b.Heap:
		return perfLoadHeap
	case b.Stack:
		return perfLoadStack
	}
	return perfLoadFull
}

// --- Flat store fast paths ---

func perfStoreFull(tx *Tx, a mem.Addr, val uint64, _ Acc) { tx.writeFull(a, val) }

func perfStoreStack(tx *Tx, a mem.Addr, val uint64, _ Acc) {
	if tx.onTxStack(a) {
		tx.storeCaptured(a, val)
		return
	}
	tx.writeFull(a, val)
}

func perfStoreStackHeap(tx *Tx, a mem.Addr, val uint64, _ Acc) {
	if tx.onTxStack(a) || tx.inNursery(a) {
		tx.storeCaptured(a, val)
		return
	}
	if tx.inAllocZone(a) {
		if tx.inLastHit(a) || tx.probeAlog(a) {
			tx.storeCaptured(a, val)
			return
		}
	}
	tx.writeFull(a, val)
}

func perfStoreHeap(tx *Tx, a mem.Addr, val uint64, _ Acc) {
	if tx.inNursery(a) {
		tx.storeCaptured(a, val)
		return
	}
	if tx.inAllocZone(a) {
		if tx.inLastHit(a) || tx.probeAlog(a) {
			tx.storeCaptured(a, val)
			return
		}
	}
	tx.writeFull(a, val)
}

func perfStoreCore(b BarrierOpt) storeFn {
	switch {
	case b.Stack && b.Heap:
		return perfStoreStackHeap
	case b.Heap:
		return perfStoreHeap
	case b.Stack:
		return perfStoreStack
	}
	return perfStoreFull
}

// --- Composable prologues ---

// withStaticElide prepends the compiler optimization (Sec. 3.2): an
// access whose provenance proves capture is a plain memory access.
func withStaticElide(load loadFn, store storeFn) (loadFn, storeFn) {
	return func(tx *Tx, a mem.Addr, ac Acc) uint64 {
			if StaticElide(ac.Prov) {
				return tx.th.rt.space.Load(a)
			}
			return load(tx, a, ac)
		}, func(tx *Tx, a mem.Addr, val uint64, ac Acc) {
			if StaticElide(ac.Prov) {
				tx.storeCaptured(a, val)
				return
			}
			store(tx, a, val, ac)
		}
}

// withSkipShared prepends the definitely-shared extension: a ProvShared
// access goes straight to the full barrier, skipping capture checks
// that cannot succeed.
func withSkipShared(load loadFn, store storeFn) (loadFn, storeFn) {
	return func(tx *Tx, a mem.Addr, ac Acc) uint64 {
			if ac.Prov == ProvShared {
				return tx.readFull(a)
			}
			return load(tx, a, ac)
		}, func(tx *Tx, a mem.Addr, val uint64, ac Acc) {
			if ac.Prov == ProvShared {
				tx.writeFull(a, val)
				return
			}
			store(tx, a, val, ac)
		}
}

// --- The exclusive pair (Thread.Exclusive) ---

// loadExclusive is the load of a thread no other thread can race: a
// plain load, no orec, no read set.
func loadExclusive(tx *Tx, a mem.Addr, _ Acc) uint64 { return tx.th.rt.space.Load(a) }

// storeExclusive is the store of a thread no other thread can race. A
// store the profile elides is stored as every engine stores it; any
// other keeps its undo entry and takes no lock, like the annotated
// private data of Sec. 3.1.3. The undo log so holds exactly what it
// holds with barriers: an abort leaves the same words behind, and a
// redo record carries the same words.
func storeExclusive(tx *Tx, a mem.Addr, val uint64, ac Acc) {
	if tx.storeElides(a, ac) {
		tx.storeCaptured(a, val)
		return
	}
	tx.logUndo(a)
	tx.th.rt.space.StorePlain(a, val)
}

// storeElides is the interpreting chain's store decision (storeGeneric)
// without its statistics: whether the profile proves a captured.
func (tx *Tx) storeElides(a mem.Addr, ac Acc) bool {
	switch {
	case tx.compiler && StaticElide(ac.Prov):
		return true
	case tx.skipShared && ac.Prov == ProvShared:
		return false
	}
	return tx.writeStack && tx.onTxStack(a) || tx.writeHeap && tx.alogContains(a)
}
