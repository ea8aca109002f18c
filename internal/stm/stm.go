// Package stm implements the software transactional memory runtime
// the paper's optimizations live in: a McRT/Intel-C++-STM-class system
// with cache-line-granularity ownership records, encounter-time (eager)
// write locking, in-place updates with an undo log, optimistic
// invisible readers validated against a global version clock, and a
// per-phase compiled contention manager (cm.go; the paper's policy,
// randomized exponential backoff, is the default).
//
// Every read and write barrier contains the paper's runtime capture
// analysis fast path (Fig. 2): if the accessed location is captured by
// the current transaction — on the transaction-local stack (Fig. 4),
// in the transaction's allocation log (Sec. 3.1.2), or in the thread's
// annotated private-data log (Sec. 3.1.3) — the expensive barrier is
// elided and a plain memory access is performed. The compiler
// optimization (Sec. 3.2) is modeled by the provenance carried in
// each access descriptor (see Prov) and elides statically.
//
// The files, outermost layer first (the slow paths call back up into
// lifecycle.go only to extend or abandon the attempt):
//
//	stm.go        Runtime, Thread, the Atomic retry loop
//	adaptive.go   online per-kind selection of engine variant and manager
//	phase.go      the compiled engine table; EnterPhase switches between
//	              transactions
//	cm.go         contention managers: what a lost attempt waits for
//	lifecycle.go  begin/commit/abort, closed nesting, extension
//	durable.go    redo records emitted from the commit/abort paths
//	engine.go     barrier engine: a profile compiled into a Load/Store
//	              pair; the stats-free perf chain
//	barrier.go    the interpreting chain, the full-barrier slow paths,
//	              read-mostly mode
//	logs.go       read/write/undo logs with their RAR/WAW filters, alloc
//	              logs and capture probes
//
// There are two barrier chains. The interpreting chain re-tests the
// profile on every access and is the only one that keeps statistics:
// it is engine "counting" for instrumented profiles and, pinned by
// ForceGeneric, the "generic" reference of the differentials. The perf
// chain is the specialized stats-free fast path PerfMode profiles
// compile to. Both end in the same readFull/writeFull, and read-mostly
// is a mode of those two functions, not a chain. One engine is
// compiled per phase (newEngine), once per Runtime.
package stm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/capture"
	"repro/internal/mem"
	"repro/internal/wal"
)

// DefaultOrecBits sizes the ownership-record table at 1<<18 entries.
const DefaultOrecBits = 18

// Runtime is a shared STM instance: the simulated address space, the
// ownership-record table, the global version clock, and the active
// optimization configuration. One Runtime is shared by all threads of
// a workload.
type Runtime struct {
	space     *mem.Space
	orecs     []atomic.Uint64
	orecShift uint
	clock     atomic.Uint64
	cfg       OptConfig

	// phases is the compiled engine table (phase.go): index 0 is the
	// default phase's engine, compiled once from cfg; declared phases
	// follow in declaration order, then the adaptive variant entries
	// (adaptive.go). phaseIdx maps kind → table index (for an adaptive
	// kind, its probe entry; phaseIndex follows the live selection).
	phases   []compiledPhase
	phaseIdx map[string]int
	kinds    []string // declared kinds: manual then adaptive, once each
	manual   int      // count of manually declared phases

	// Adaptive engine selection (adaptive.go): acfg is the normalized
	// configuration, adapt one shared selection state per adaptive kind,
	// adaptByIdx the per-table-entry view of the same states (nil for
	// non-adaptive entries) so the per-transaction tick is one load.
	acfg       AdaptiveConfig
	adapt      []*adaptState
	adaptByIdx []*adaptState

	// seqs[i] is thread i's quiescence counter: odd while inside a
	// transaction, even otherwise. It drives the epoch-based deferred
	// reuse of transactionally freed blocks (McRT-malloc style): a
	// freed block is recycled only once every thread observed at an
	// odd count has since finished that transaction, so no optimistic
	// (zombie) reader can still dereference into it.
	seqs []atomic.Uint64

	// gates[i] is thread i's park point for the queue contention
	// manager (cm.go): conflicting threads park on the owner that beat
	// them and are woken at its next orec release. Sized like seqs so
	// any owner id read out of a locked orec word indexes safely.
	gates []waitGate

	// durable, when non-nil, is the redo log every state-changing event
	// is serialized into (durable.go). Off, every durability hook is one
	// nil check — the commit path is otherwise unchanged.
	durable *wal.Log

	mu      sync.Mutex
	threads map[int]*Thread
}

// New creates a runtime over a fresh address space.
func New(mcfg mem.Config, cfg OptConfig) *Runtime {
	bits := cfg.OrecBits
	if bits == 0 {
		bits = DefaultOrecBits
	}
	if bits < 4 || bits > 26 {
		panic("stm: OrecBits out of range")
	}
	phases, phaseIdx := compilePhases(cfg)
	manual := len(phases) - 1
	acfg := normalizeAdaptive(cfg.Adaptive)
	phases, adapt := compileAdaptive(acfg, phases, phaseIdx)
	kinds := make([]string, 0, manual+len(adapt))
	for _, p := range phases[1 : 1+manual] {
		kinds = append(kinds, p.kind)
	}
	adaptByIdx := make([]*adaptState, len(phases))
	for _, st := range adapt {
		kinds = append(kinds, st.kind)
		adaptByIdx[st.probe] = st
		adaptByIdx[st.capture] = st
		adaptByIdx[st.skip] = st
		adaptByIdx[st.rm] = st
	}
	return &Runtime{
		space:      mem.NewSpace(mcfg),
		orecs:      make([]atomic.Uint64, 1<<bits),
		orecShift:  64 - uint(bits),
		cfg:        cfg,
		phases:     phases,
		phaseIdx:   phaseIdx,
		kinds:      kinds,
		manual:     manual,
		acfg:       acfg,
		adapt:      adapt,
		adaptByIdx: adaptByIdx,
		seqs:       make([]atomic.Uint64, mcfg.MaxThreads),
		gates:      newGates(mcfg.MaxThreads),
		threads:    make(map[int]*Thread),
	}
}

// Engine names the barrier engine compiled for this runtime's default
// phase ("generic", "counting", or a "perf-*" specialization). When
// phases are declared the name carries a "+phases" marker, and when
// adaptive selection is on an "+adaptive" marker — the per-phase
// breakdown is EngineFor, PhaseStats, and AdaptiveSelections.
func (rt *Runtime) Engine() string {
	name := rt.phases[0].eng.name
	if rt.manual > 0 {
		name += "+phases"
	}
	if len(rt.adapt) > 0 {
		name += "+adaptive"
	}
	return name
}

// Space returns the simulated address space (for non-transactional
// setup and validation code).
func (rt *Runtime) Space() *mem.Space { return rt.space }

// Config returns the active optimization configuration.
func (rt *Runtime) Config() OptConfig { return rt.cfg }

// orecIndex maps an address to its ownership record. Addresses are
// mapped per simulated cache line (8 words), then spread over the
// table with a multiplicative hash — the paper's cache-line-based
// transaction-record mapping. Distinct lines can collide (false
// conflicts, Sec. 2.2), which shrinking the table makes visible.
func (rt *Runtime) orecIndex(a mem.Addr) uint64 {
	line := uint64(a) / mem.LineWords
	return (line * 0x9E3779B97F4A7C15) >> rt.orecShift
}

// Orec word encoding: unlocked orecs hold version<<1 (even); locked
// orecs hold (owner+1)<<1 | 1.
func orecLocked(v uint64) bool    { return v&1 == 1 }
func orecOwner(v uint64) int      { return int(v>>1) - 1 }
func orecLockWord(id int) uint64  { return uint64(id+1)<<1 | 1 }
func orecVersion(v uint64) uint64 { return v >> 1 }

// Thread is a per-worker execution context: the simulated stack, the
// heap allocation cache, the annotated-private-data log, statistics,
// and the (reused) transaction descriptor. A Thread must be used by
// one goroutine at a time.
type Thread struct {
	rt    *Runtime
	id    int
	stack *mem.Stack
	alloc *mem.Allocator
	priv  capture.Log // thread-local/read-only annotations (Sec. 3.1.3)
	rng   uint64
	tx    Tx

	// stats points at the current phase's accumulator inside
	// phaseStats, so the barrier chains never test which phase is
	// active; setPhase retargets it at phase switches. phaseStats is
	// indexed like the runtime's engine table (0 = default phase).
	stats        *Stats
	phaseStats   []Stats
	phase        int
	pendingPhase int // deferred EnterPhase target; -1 = none

	// cm is the current phase's compiled contention manager (cm.go),
	// retargeted with stats at phase switches; backoffAcc sinks the
	// backoff spin loop's result so it cannot be optimized away —
	// per-thread, so backing off never touches shared cache lines.
	cm         *cmgr
	backoffAcc uint64

	// Adaptive epoch sampling (adaptive.go), allocated only when the
	// runtime adapts: adaptMark[i] snapshots phaseStats[i] at the start
	// of this thread's current epoch on entry i; adaptFast[i] counts
	// consecutive fast epochs since the last probe there.
	adaptMark []Stats
	adaptFast []uint32

	limbo []limboBatch // committed frees awaiting quiescence

	// Redo-record scratch (durable.go): the record descriptor and the
	// flat value buffer its spans are carved from, reused per thread.
	drec  wal.Record
	dvals []uint64

	// rar is the read-after-read filter's table (Tx.logRead), allocated
	// on the thread's first long transaction: short ones never consult
	// it. Last in the struct, so no field the barriers touch moves.
	rar *[rarSlots]uint32
}

// limboBatch holds blocks freed by one committed transaction plus the
// quiescence snapshot taken at commit: only the threads observed inside
// a transaction (odd sequence) matter, so the snapshot records just
// those (id, seq) pairs instead of a full per-thread vector per batch.
type limboBatch struct {
	blocks []mem.Addr
	ids    []int32  // threads odd at enqueue time
	seqs   []uint64 // their sequence values, parallel to ids
}

// enqueueLimbo defers the reuse of blocks until quiescence. The batch
// is built in the slot past the end of th.limbo, where drainLimbo left
// an earlier batch's slices for reuse.
func (th *Thread) enqueueLimbo(blocks []mem.Addr) {
	n := len(th.limbo)
	if n < cap(th.limbo) {
		th.limbo = th.limbo[:n+1]
	} else {
		th.limbo = append(th.limbo, limboBatch{})
	}
	b := &th.limbo[n]
	b.blocks = append(b.blocks[:0], blocks...)
	b.ids, b.seqs = b.ids[:0], b.seqs[:0]
	for i := range th.rt.seqs {
		if s := th.rt.seqs[i].Load(); s%2 == 1 {
			b.ids = append(b.ids, int32(i))
			b.seqs = append(b.seqs, s)
		}
	}
}

// drainLimbo recycles every batch whose snapshot has quiesced. The
// live batches move to the front, in order, by swapping with the
// drained ones, which so end up past the new length with their slices
// intact: a freeing commit in steady state allocates nothing.
func (th *Thread) drainLimbo() {
	drained := 0
drain:
	for ; drained < len(th.limbo); drained++ {
		b := &th.limbo[drained]
		for i, id := range b.ids {
			if th.rt.seqs[id].Load() == b.seqs[i] {
				break drain // that thread is still inside the same transaction
			}
		}
		for _, p := range b.blocks {
			th.alloc.Free(p)
		}
	}
	if drained > 0 {
		for i := drained; i < len(th.limbo); i++ {
			th.limbo[i-drained], th.limbo[i] = th.limbo[i], th.limbo[i-drained]
		}
		th.limbo = th.limbo[:len(th.limbo)-drained]
	}
}

// Thread returns (creating on first use) the execution context for
// worker id. Safe for concurrent use.
func (rt *Runtime) Thread(id int) *Thread {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if th, ok := rt.threads[id]; ok {
		return th
	}
	th := &Thread{
		rt:           rt,
		id:           id,
		stack:        mem.NewStack(rt.space, id),
		alloc:        mem.NewAllocator(rt.space),
		priv:         capture.NewTree(),
		rng:          uint64(id)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D,
		phaseStats:   make([]Stats, len(rt.phases)),
		pendingPhase: -1,
	}
	th.stats = &th.phaseStats[0]
	th.cm = rt.cmAt(0)
	if rt.acfg.Enabled {
		th.adaptMark = make([]Stats, len(rt.phases))
		th.adaptFast = make([]uint32, len(rt.phases))
	}
	th.tx.init(th)
	rt.threads[id] = th
	return th
}

// ResetStats zeroes every thread's counters. The harness calls it
// between a benchmark's (transactional, but untimed) setup phase and
// the timed parallel phase, so reported statistics cover only the
// latter — matching the paper, whose setup code ran uninstrumented.
// Not safe to call while worker threads are running.
func (rt *Runtime) ResetStats() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, th := range rt.threads {
		for i := range th.phaseStats {
			th.phaseStats[i] = Stats{}
		}
		// Epoch marks snapshot absolute counter values, so they must be
		// cleared with them or the next adaptive epoch would compute
		// deltas against pre-reset counts.
		for i := range th.adaptMark {
			th.adaptMark[i] = Stats{}
		}
	}
}

// Stats sums the statistics of every thread created so far, across all
// phases (the per-phase view is PhaseStats).
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var s Stats
	for _, th := range rt.threads {
		for i := range th.phaseStats {
			s.Add(&th.phaseStats[i])
		}
	}
	return s
}

// ID returns the worker id of this thread.
func (th *Thread) ID() int { return th.id }

// Stats returns this thread's counters for its current phase (read
// after joining; without declared phases this is all of the thread's
// accounting, exactly as before phases existed).
func (th *Thread) Stats() *Stats { return th.stats }

// Runtime returns the owning runtime.
func (th *Thread) Runtime() *Runtime { return th.rt }

// --- Non-transactional operations (setup/teardown phases) ---

// Alloc allocates n words outside any transaction.
func (th *Thread) Alloc(n int) mem.Addr {
	p := th.alloc.Alloc(n)
	if th.rt.durable != nil {
		// The allocation wrote the header word and zeroed the payload.
		th.journal(p-1, th.alloc.BlockSize(p)+1)
	}
	return p
}

// Free frees a block outside any transaction. Freeing changes no words
// (headers and contents stay in place), so nothing is journaled.
func (th *Thread) Free(p mem.Addr) { th.alloc.Free(p) }

// Load reads a word non-transactionally.
func (th *Thread) Load(a mem.Addr) uint64 { return th.rt.space.Load(a) }

// Store writes a word non-transactionally.
func (th *Thread) Store(a mem.Addr, v uint64) {
	th.rt.space.Store(a, v)
	if th.rt.durable != nil {
		th.journal(a, 1)
	}
}

// StackPush allocates an n-word frame on the simulated stack outside a
// transaction (live-in data for later transactions). The returned mark
// must be passed to StackPop.
func (th *Thread) StackPush(n int) (frame mem.Addr, mark mem.Addr) {
	mark = th.stack.SP()
	frame = th.stack.Push(n)
	if th.rt.durable != nil {
		th.journal(frame, n) // Push zeroed the frame
	}
	return frame, mark
}

// StackPop releases the stack down to mark.
func (th *Thread) StackPop(mark mem.Addr) { th.stack.Pop(mark) }

// --- Annotation APIs (paper Fig. 7) ---

// AddPrivateBlock annotates [addr, addr+size) as thread-local or
// read-only: safe to access inside transactions without STM barriers.
// This is the paper's addPrivateMemoryBlock. Incorrect use can
// introduce data races, exactly as in the paper.
func (th *Thread) AddPrivateBlock(addr mem.Addr, size int) {
	th.priv.Insert(addr, addr+mem.Addr(size))
}

// RemovePrivateBlock ends the annotation for [addr, addr+size); the
// paper's removePrivateMemoryBlock.
func (th *Thread) RemovePrivateBlock(addr mem.Addr, size int) {
	th.priv.Remove(addr, addr+mem.Addr(size))
}

// --- Transactions ---

// retrySignal unwinds a conflicting transaction attempt.
type retrySignal struct{}

// userAbort unwinds an explicitly aborted (inner) transaction.
type userAbort struct{}

// Atomic executes fn as a transaction, retrying on conflicts until it
// commits. If fn calls Tx.UserAbort, the (innermost) transaction rolls
// back and Atomic returns false; otherwise it returns true. Calling
// Atomic inside a transaction runs fn as a closed nested transaction
// with partial abort.
func (th *Thread) Atomic(fn func(*Tx)) bool {
	tx := &th.tx
	if tx.active {
		return th.atomicNested(fn)
	}
	// A phase switch hinted during the previous transaction lands here,
	// on the boundary: the retry loop below always runs one engine.
	if th.pendingPhase >= 0 {
		th.setPhase(th.pendingPhase)
	}
	for {
		tx.beginTop()
		retry, aborted := th.run(tx, fn)
		if retry {
			// The phase's compiled contention manager decides what to do
			// with the lost attempt (cm.go): spin, retry immediately, or
			// park on the conflicting owner. The attempt has fully
			// unwound — abortTop released every orec — so the manager
			// runs lock-free.
			th.cm.wait(th, tx)
			continue
		}
		tx.attempts = 0
		tx.upNext = false // full-engine fallback is per transaction
		if th.pendingPhase >= 0 {
			th.setPhase(th.pendingPhase)
		}
		// Adaptive runtimes sample at this boundary: one nil check for
		// everyone else.
		if th.adaptMark != nil {
			th.adaptiveTick()
		}
		return !aborted
	}
}

// run executes one attempt; it reports whether to retry and whether
// the user aborted. All cleanup happens before return.
func (th *Thread) run(tx *Tx, fn func(*Tx)) (retry, aborted bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch r.(type) {
		case retrySignal:
			tx.abortTop(true)
			retry = true
		case userAbort:
			tx.abortTop(false)
			aborted = true
		default:
			tx.abortTop(false)
			panic(r)
		}
	}()
	fn(tx)
	tx.commitTop() // may panic retrySignal on validation failure
	return false, false
}

func (th *Thread) atomicNested(fn func(*Tx)) (committed bool) {
	tx := &th.tx
	tx.beginNested()
	committed = true
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if _, ok := r.(userAbort); ok {
				tx.abortNested()
				committed = false
				return
			}
			// Conflicts and real panics unwind to the top level,
			// which rolls back everything.
			panic(r)
		}()
		fn(tx)
	}()
	if committed {
		tx.commitNested()
	}
	return committed
}

// nextRand is a xorshift64* step for backoff jitter.
func (th *Thread) nextRand() uint64 {
	x := th.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	th.rng = x
	return x * 0x2545F4914F6CDD1D
}

// Validate is a debugging aid for tests: it panics if any orec is
// still locked (all transactions must have released ownership).
func (rt *Runtime) Validate() {
	for i := range rt.orecs {
		if v := rt.orecs[i].Load(); orecLocked(v) {
			panic(fmt.Sprintf("stm: orec %d still locked by thread %d", i, orecOwner(v)))
		}
	}
}
