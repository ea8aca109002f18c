package tm

import (
	"repro/internal/mem"
	"repro/internal/stm"
)

// LogKind names the allocation log of the runtime capture analysis
// (Sec. 3.1.2 of the paper). Its one value is LogTree, the precise log:
// a granule-hashed table of ranges with an O(1) probe (it stands where
// the paper has a search tree). The type, LogTree and the presets'
// parameter exist only because the benchmark rig calls
// RuntimeAll(LogTree) (benchmark/workloads.go); they go once it calls
// RuntimeAll().
type LogKind struct{}

// LogTree is the precise allocation log, the only one.
var LogTree LogKind

// Checks selects which runtime capture checks a barrier performs.
type Checks struct {
	// Stack enables the transaction-local stack range check (Fig. 4).
	Stack bool
	// Heap enables the allocation-log search (Sec. 3.1.2).
	Heap bool
}

// Canonical check sets for WithRuntimeCapture. They are variables
// only because Go has no struct constants: treat them as read-only
// (mutating one would silently change every later Open in the
// process).
var (
	// StackAndHeap performs both capture checks.
	StackAndHeap = Checks{Stack: true, Heap: true}
	// HeapOnly performs only the allocation-log search.
	HeapOnly = Checks{Heap: true}
	// StackOnly performs only the stack range check.
	StackOnly = Checks{Stack: true}
	// NoChecks disables runtime capture analysis for the barrier.
	NoChecks = Checks{}
)

// settings accumulates the configuration an Open call builds.
type settings struct {
	mem    mem.Config
	cfg    stm.OptConfig
	phases []PhaseSpec
	dur    *durSettings
}

// Option configures a Runtime created by Open.
type Option func(*settings)

// fold applies opts over the defaults: default memory geometry and the
// paper's unoptimized baseline configuration. Phase fragments are
// applied last, onto the *final* base configuration, so a WithPhases
// appearing anywhere in the option list sees every other option.
func fold(opts []Option) settings {
	s := settings{mem: mem.DefaultConfig(), cfg: stm.OptConfig{Name: "custom"}}
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	for _, ph := range s.phases {
		s.cfg.Phases = append(s.cfg.Phases, ph.compile(&s))
	}
	return s
}

// build is fold for callers that only need the compiled configuration.
func build(opts []Option) (mem.Config, stm.OptConfig) {
	s := fold(opts)
	return s.mem, s.cfg
}

// WithName labels the configuration in statistics reports.
func WithName(name string) Option {
	return func(s *settings) { s.cfg.Name = name }
}

// WithMemory sizes the simulated address space. The default is
// DefaultMemConfig.
func WithMemory(mc MemConfig) Option {
	return func(s *settings) { s.mem = mc }
}

// WithRuntimeCapture enables the paper's runtime capture analysis:
// read selects the checks performed by read barriers, write those of
// write barriers. Captured locations found by a check are accessed
// with plain loads/stores instead of the full STM barrier.
func WithRuntimeCapture(read, write Checks) Option {
	return func(s *settings) {
		s.cfg.Read = stm.BarrierOpt{Stack: read.Stack, Heap: read.Heap}
		s.cfg.Write = stm.BarrierOpt{Stack: write.Stack, Heap: write.Heap}
	}
}

// WithCompilerElision enables static elision: accesses whose reference
// provenance proves capture (fresh, local, stack) skip the barrier
// entirely, with no runtime check (the paper's Sec. 3.2).
func WithCompilerElision() Option {
	return func(s *settings) { s.cfg.Compiler = true }
}

// WithAnnotations enables the thread-private data logs behind
// Thread.AddPrivateBlock/RemovePrivateBlock (the paper's Fig. 7 APIs).
func WithAnnotations() Option {
	return func(s *settings) { s.cfg.Annotations = true }
}

// WithCounting additionally classifies every barrier with a precise
// capture log without changing execution — the configuration behind
// the paper's Fig. 8 breakdown.
func WithCounting() Option {
	return func(s *settings) { s.cfg.Counting = true }
}

// WithPerfMode drops the per-access statistics counters from the
// barriers, like the paper's performance builds (commit/abort counts
// are kept).
func WithPerfMode() Option {
	return func(s *settings) { s.cfg.PerfMode = true }
}

// WithVerifyElision panics if a statically elided access turns out not
// to be captured — the soundness oracle for provenance claims. It
// implies WithCounting (the oracle needs the precise log).
func WithVerifyElision() Option {
	return func(s *settings) {
		s.cfg.Counting = true
		s.cfg.VerifyElision = true
	}
}

// WithSkipSharedChecks enables the paper's future-work extension:
// accesses proved *definitely shared* (ProvShared) bypass the runtime
// capture checks and go straight to the full barrier.
func WithSkipSharedChecks() Option {
	return func(s *settings) { s.cfg.SkipSharedChecks = true }
}

// WithReadMostly selects the read-mostly barrier engine: the
// begin/commit lifecycle performs zero write-path setup (no write-log,
// undo-log, or lock-lookup initialization), captured reads keep the
// profile's elisions, and full-barrier reads are validated against the
// transaction's snapshot at read time without maintaining a read set —
// so a transaction that never writes shared memory commits with no log
// traffic, no validation loop, and no clock bump. Captured stores —
// stack frames, fresh allocations, compiler-elided accesses — stay
// plain in-place writes; the first store that takes an ownership
// record upgrades the transaction to logged mode (counted in
// Stats.Upgrades): in-flight when no writer has committed since the
// snapshot, else by restarting the attempt logged from the start. Right
// for scan/report phases; usually declared per-phase (PhaseScan)
// rather than runtime-wide. Ignored under
// WithCounting/WithVerifyElision, whose oracles need the instrumented
// chain.
func WithReadMostly() Option {
	return func(s *settings) { s.cfg.ReadMostly = true }
}

// WithoutWAWFilter disables the baseline's cheap write-after-write
// undo-log filtering (on by default; its presence explains the
// paper's yada results).
func WithoutWAWFilter() Option {
	return func(s *settings) { s.cfg.NoWAWFilter = true }
}

// Engine selects the barrier-engine family a Runtime compiles its
// Load/Store hot paths into.
type Engine int

const (
	// EngineAuto (the default) lets Open pick the engine the profile
	// compiles to: the instrumented chain when statistics are kept, a
	// specialized stats-free fast path under WithPerfMode.
	EngineAuto Engine = iota
	// EngineGeneric forces the generic reference chain, which
	// re-interprets the whole profile on every access. It exists for
	// differential testing: a specialized engine must be
	// observationally identical to the generic one.
	EngineGeneric
)

// WithEngine forces a barrier-engine family. The default, EngineAuto,
// is right for everything except engine-equivalence testing; see
// Runtime.Engine for what was actually selected. The forced family
// applies to every declared phase.
func WithEngine(e Engine) Option {
	return func(s *settings) { s.cfg.ForceGeneric = e == EngineGeneric }
}

// --- Phases ---

// Phase names a declared workload phase kind. Kinds are free-form
// strings; PhasePublish and PhaseCursor are the conventional names for
// the paper's two capture regimes.
type Phase = string

const (
	// PhasePublish is the allocate-build-publish regime: transactions
	// that assemble their footprint in captured memory, where the
	// capture-checking engines elide most barriers.
	PhasePublish Phase = "publish"
	// PhaseCursor is the contended shared read-modify-write regime:
	// transactions that capture nothing, where capture checks are pure
	// overhead and the definitely-shared bypass is the right engine.
	PhaseCursor Phase = "cursor"
	// PhaseScan is the read-dominated regime: transactions that read
	// broadly and store only into captured memory (accumulators, result
	// vectors). Declare it with PhaseProfile(PhaseScan, WithReadMostly())
	// to run it on the read-mostly engine: unlogged snapshot-validated
	// reads and no write-path setup.
	PhaseScan Phase = "scan"
)

// PhaseSpec maps one phase kind to the profile fragment its barrier
// engine compiles from; build with PhaseProfile and declare with
// WithPhases.
type PhaseSpec struct {
	kind Phase
	opts []Option
}

// PhaseProfile binds a phase kind to a profile fragment: options
// applied on top of the runtime's base configuration to derive the
// phase's engine. Memory geometry and nested phase declarations inside
// the fragment are ignored — both are per-Runtime.
func PhaseProfile(kind Phase, opts ...Option) PhaseSpec {
	return PhaseSpec{kind: kind, opts: opts}
}

// compile overlays the fragment on a copy of the final base settings
// and returns the phase's full engine configuration.
func (ph PhaseSpec) compile(base *settings) stm.PhaseConfig {
	d := settings{mem: base.mem, cfg: base.cfg}
	d.cfg.Phases = nil
	for _, o := range ph.opts {
		if o != nil {
			o(&d)
		}
	}
	d.cfg.Phases = nil // fragments cannot nest phase declarations
	return stm.PhaseConfig{Kind: ph.kind, Cfg: d.cfg}
}

// WithPhases declares named workload phases, each compiled to its own
// barrier engine derived from the base configuration plus the spec's
// fragment. Threads switch engines with Thread.EnterPhase; switches
// take effect only between transactions. Workloads may hint phases
// unconditionally — under a profile that declares no phases (or not
// that kind), the hint falls back to the default engine and the run
// behaves exactly like the classic one-engine runtime.
func WithPhases(specs ...PhaseSpec) Option {
	return func(s *settings) { s.phases = append(s.phases, specs...) }
}

// --- Profiles ---

// Profile is a named, reusable bundle of Options — one column of a
// bench matrix. The zero Profile is the unnamed baseline.
type Profile struct {
	name string
	opts []Option
}

// NewProfile creates a named option bundle.
func NewProfile(name string, opts ...Option) Profile {
	return Profile{name: name, opts: opts}
}

// Name returns the profile's report label.
func (p Profile) Name() string { return p.name }

// With returns a copy of the profile with extra options appended
// (later options override earlier ones).
func (p Profile) With(extra ...Option) Profile {
	opts := make([]Option, 0, len(p.opts)+len(extra))
	opts = append(opts, p.opts...)
	opts = append(opts, extra...)
	return Profile{name: p.name, opts: opts}
}

// Named returns a copy of the profile under a new report label.
func (p Profile) Named(name string) Profile {
	return Profile{name: name, opts: p.opts}
}

// Perf returns a copy of the profile with performance mode enabled,
// like the paper's timing builds.
func (p Profile) Perf() Profile { return p.With(WithPerfMode()) }

// Options returns the option list the profile denotes, including its
// name, ready to pass to Open.
func (p Profile) Options() []Option {
	opts := make([]Option, 0, len(p.opts)+1)
	opts = append(opts, WithName(p.name))
	opts = append(opts, p.opts...)
	return opts
}

// --- Preset profiles (the paper's evaluated configurations) ---

// Baseline is the unoptimized configuration: full barriers,
// write-after-write filtering on.
func Baseline() Profile { return NewProfile("baseline") }

// Counting is the baseline plus Fig. 8 classification counters.
func Counting() Profile { return NewProfile("counting", WithCounting()) }

// RuntimeAll enables runtime capture analysis for both the
// transaction-local stack and heap in both read and write barriers.
func RuntimeAll(LogKind) Profile {
	return NewProfile("runtime-rw-stack-heap-tree", WithRuntimeCapture(StackAndHeap, StackAndHeap))
}

// RuntimeWrite enables runtime capture analysis for stack and heap in
// write barriers only.
func RuntimeWrite(LogKind) Profile {
	return NewProfile("runtime-w-stack-heap-tree", WithRuntimeCapture(NoChecks, StackAndHeap))
}

// RuntimeHeapWrite enables runtime capture analysis for heap accesses
// in write barriers only (the configuration of the paper's Fig. 11b).
func RuntimeHeapWrite(LogKind) Profile {
	return NewProfile("runtime-w-heap-tree", WithRuntimeCapture(NoChecks, HeapOnly))
}

// CompilerElision is static elision only, no runtime checks.
func CompilerElision() Profile {
	return NewProfile("compiler", WithCompilerElision())
}
