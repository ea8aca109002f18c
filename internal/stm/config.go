package stm

import "repro/internal/capture"

// Prov is the static provenance of the address operand of a memory
// access — the fact an intraprocedural pointer analysis with inlining
// (the paper's Sec. 3.2 compiler analysis) derives for the access
// site. Workloads written directly in Go pass the provenance the
// analysis would compute; the TL compiler (internal/tlc) computes it
// automatically from source and feeds the same decision procedure.
type Prov uint8

const (
	// ProvUnknown: the analysis cannot prove the address
	// transaction-local (e.g. it was loaded from shared memory or
	// reached the function through an unanalyzed call). The compiler
	// must keep the barrier.
	ProvUnknown Prov = iota
	// ProvFresh: the address derives directly from an allocation made
	// in the current transaction in the same (post-inlining) function
	// body — the easy intraprocedural case.
	ProvFresh
	// ProvLocal: the address points into a structure the analysis
	// proved transaction-local after inlining (e.g. a node reached
	// from a container that was allocated and populated entirely
	// inside the transaction).
	ProvLocal
	// ProvStack: the address of a stack variable declared inside the
	// atomic block (dead on abort, invisible to other threads).
	ProvStack
	// ProvShared: the analysis proved the access *definitely* targets
	// shared memory (e.g. a global that is never transaction-local),
	// so runtime capture checks on it are pure overhead. This is the
	// paper's future-work direction ("identify memory accesses that
	// definitely require STM barriers and avoid runtime checks trying
	// to elide them"), implemented here as an extension.
	ProvShared
)

// String names the provenance for reports.
func (p Prov) String() string {
	switch p {
	case ProvUnknown:
		return "unknown"
	case ProvFresh:
		return "fresh"
	case ProvLocal:
		return "local"
	case ProvStack:
		return "stack"
	case ProvShared:
		return "shared"
	}
	return "invalid"
}

// StaticElide is the compiler's decision procedure: a barrier is
// statically elidable exactly when provenance proves the location
// captured. It is conservative — ProvUnknown and ProvShared keep the
// barrier.
func StaticElide(p Prov) bool { return p != ProvUnknown && p != ProvShared }

// Acc describes one memory access site to the barrier: the static
// provenance of its address and whether the original (hand-
// instrumented) STAMP program marked this access with a TM_SHARED_*
// macro. Manual is the paper's estimate of *required* barriers
// (Sec. 4.1); accesses that the STM compiler instruments beyond the
// manual set are over-instrumentation.
type Acc struct {
	Prov   Prov
	Manual bool
}

// Canonical access descriptors used throughout the workloads.
var (
	// AccShared: hand-instrumented shared access (STAMP TM_SHARED_*).
	// Hand instrumentation is the programmer asserting the access is
	// shared, which the definitely-shared extension exploits.
	AccShared = Acc{Prov: ProvShared, Manual: true}
	// AccAuto: access the naive compiler instruments but the original
	// program performed plainly (e.g. inside a P_* library variant).
	AccAuto = Acc{Prov: ProvUnknown, Manual: false}
	// AccFresh: provably captured; address from an allocation in the
	// same transaction and function.
	AccFresh = Acc{Prov: ProvFresh, Manual: false}
	// AccLocal: provably captured after inlining.
	AccLocal = Acc{Prov: ProvLocal, Manual: false}
	// AccStack: stack local declared inside the atomic block.
	AccStack = Acc{Prov: ProvStack, Manual: false}
)

// BarrierOpt selects which runtime capture checks a barrier performs.
type BarrierOpt struct {
	// Stack enables the transaction-local stack range check (Fig. 4).
	Stack bool
	// Heap enables the allocation-log search (Sec. 3.1.2).
	Heap bool
}

// OptConfig selects one optimization configuration from the paper's
// evaluation (Sec. 4). The zero value is the unoptimized baseline.
type OptConfig struct {
	// Name labels the configuration in reports.
	Name string

	// Read and Write enable runtime capture analysis in read and
	// write barriers respectively. The paper's three runtime
	// configurations (Fig. 10) are: both R+W stack+heap; W-only
	// stack+heap; W-only heap-only.
	Read  BarrierOpt
	Write BarrierOpt

	// LogKind picks the allocation-log implementation used by runtime
	// capture analysis (tree, array, filter), each at capture.New's
	// size: one cache line of ranges, a 1<<10-slot filter.
	LogKind capture.Kind

	// Compiler enables static elision: accesses whose provenance
	// proves capture use plain loads/stores with no runtime cost.
	Compiler bool

	// Annotations enables the thread-local/read-only data logs behind
	// addPrivateMemoryBlock/removePrivateMemoryBlock (Sec. 3.1.3).
	Annotations bool

	// NoWAWFilter disables the baseline's cheap write-after-write
	// filtering (on by default; its presence explains yada, Sec. 4.2).
	NoWAWFilter bool

	// Counting additionally classifies every barrier with the precise
	// log and stack check without changing execution, to
	// regenerate the Fig. 8 breakdown.
	Counting bool

	// PerfMode drops the per-access statistics counters from the
	// barriers, like the paper's performance builds (commit/abort
	// counts are kept). Used for the Fig. 10/11 timing runs.
	PerfMode bool

	// VerifyElision panics if a statically elided access turns out not
	// to be captured — the soundness oracle for the TL compiler's
	// capture analysis. Requires Counting (for the precise log).
	VerifyElision bool

	// SkipSharedChecks implements the paper's future-work extension:
	// accesses the compiler proved *definitely shared* (ProvShared)
	// bypass the runtime capture checks and go straight to the full
	// barrier, removing check overhead where elision cannot happen.
	SkipSharedChecks bool

	// ReadMostly runs the profile's engine in read-mostly mode
	// (barrier.go): captured reads keep the profile's elisions,
	// full-barrier reads are validated against the attempt's snapshot
	// at read time and never logged (no read set), stores that take no
	// orec stay plain stores, and the first store that needs the full
	// write barrier triggers a one-time in-flight upgrade to logged
	// mode — or, when writers have committed past the snapshot, a
	// restart of the attempt logged from its first access. A
	// transaction that never upgrades never touches the read set,
	// write log or undo log, and commits without a validation loop or
	// clock bump. The capture dispatch is the
	// profile's own, so incidental captured stores (stack probe keys,
	// scan scratch) do not force the upgrade. Ignored under the
	// Counting/VerifyElision debug oracles, which must see every
	// access logged.
	ReadMostly bool

	// ForceGeneric forces the generic reference barrier engine instead
	// of the specialized engine the profile would compile to. It is a
	// debug/differential-testing knob (tm.WithEngine): the specialized
	// engines must be observationally identical to the generic chain.
	// It applies to every declared phase, not just the default one.
	ForceGeneric bool

	// Phases declares named workload phases, each compiled to its own
	// barrier engine (phase.go). Threads switch between the compiled
	// engines with Thread.EnterPhase; switches only take effect between
	// transactions. An empty slice is the classic one-engine runtime.
	Phases []PhaseConfig
}

// PhaseConfig binds a phase kind to the full optimization configuration
// its barrier engine compiles from. The tm layer builds these by
// overlaying per-phase option fragments on the runtime's base
// configuration; the engine-force knob is inherited from the base at
// compile time regardless of what the fragment says.
type PhaseConfig struct {
	Kind string
	Cfg  OptConfig
}

// Perf returns a copy of the configuration with PerfMode enabled.
func (c OptConfig) Perf() OptConfig {
	c.PerfMode = true
	return c
}

// Baseline returns the unoptimized configuration (full barriers,
// write-after-write filtering on, as in the paper's baseline).
func Baseline() OptConfig {
	return OptConfig{Name: "baseline"}
}

// CountingConfig returns the baseline plus Fig. 8 classification
// counters.
func CountingConfig() OptConfig {
	return OptConfig{Name: "counting", Counting: true}
}

// RuntimeAll returns runtime capture analysis for both transaction-
// local stack and heap in both read and write barriers.
func RuntimeAll(k capture.Kind) OptConfig {
	return OptConfig{
		Name:    "runtime-rw-stack-heap-" + k.String(),
		Read:    BarrierOpt{Stack: true, Heap: true},
		Write:   BarrierOpt{Stack: true, Heap: true},
		LogKind: k,
	}
}

// RuntimeWrite returns runtime capture analysis for stack and heap in
// write barriers only.
func RuntimeWrite(k capture.Kind) OptConfig {
	return OptConfig{
		Name:    "runtime-w-stack-heap-" + k.String(),
		Write:   BarrierOpt{Stack: true, Heap: true},
		LogKind: k,
	}
}

// RuntimeHeapWrite returns runtime capture analysis for heap accesses
// in write barriers only (the configuration of Fig. 11b).
func RuntimeHeapWrite(k capture.Kind) OptConfig {
	return OptConfig{
		Name:    "runtime-w-heap-" + k.String(),
		Write:   BarrierOpt{Heap: true},
		LogKind: k,
	}
}

// Compiler returns the compiler-optimization configuration: static
// elision only, no runtime checks.
func Compiler() OptConfig {
	return OptConfig{Name: "compiler", Compiler: true}
}

// runtimeChecksEnabled reports whether any runtime capture check is on.
func (c OptConfig) runtimeChecksEnabled() bool {
	return c.Read.Stack || c.Read.Heap || c.Write.Stack || c.Write.Heap || c.Annotations
}
