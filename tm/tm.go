package tm

import (
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/stm"
)

// Stats holds the runtime's barrier, elision, and commit/abort
// counters (see the fields and helpers on the underlying type, e.g.
// AbortRatio, ReadElided, WriteElided).
type Stats = stm.Stats

// MemConfig sizes the simulated address space a Runtime operates on:
// GlobalWords, HeapWords, StackWords (per thread), and MaxThreads.
type MemConfig = mem.Config

// Addr is a raw simulated address — the word index a typed reference
// wraps. Most code never touches it; it is exposed for validation and
// debugging (Struct.Addr).
type Addr = mem.Addr

// DefaultMemConfig returns the address-space geometry Open uses when
// WithMemory is not given (36 MiB of simulated memory).
func DefaultMemConfig() MemConfig { return mem.DefaultConfig() }

// Runtime is a shared transactional-memory instance: the simulated
// address space, ownership records, version clock, and the active
// optimization configuration. One Runtime is shared by all threads of
// a workload.
type Runtime struct {
	rt  *stm.Runtime
	mc  mem.Config
	dur *durRuntime // durability state; nil without WithDurability

	mu      sync.Mutex
	threads map[int]*Thread
}

func newRuntime(s settings) *Runtime {
	return &Runtime{rt: stm.New(s.mem, s.cfg), mc: s.mem, threads: make(map[int]*Thread)}
}

// Open creates a runtime configured by the given options. With no
// options it is the paper's unoptimized baseline over the default
// memory geometry. Conflicting options are resolved by precedence
// (documented on each option); OpenErr reports them as errors instead.
// Open panics if WithDurability was given and the directory cannot be
// initialized — durability cannot be dropped silently; use OpenErr to
// handle that case.
func Open(opts ...Option) *Runtime {
	s := fold(opts)
	rt := newRuntime(s)
	if s.dur != nil {
		if err := openDurable(rt, s.dur, 0, 0, true); err != nil {
			panic(fmt.Sprintf("tm: opening durability dir %s: %v", s.dur.dir, err))
		}
	}
	return rt
}

// OpenErr is Open with error reporting: option combinations that Open
// resolves by silent precedence (for example WithReadMostly under
// WithCounting, which drops the read-mostly engine) are returned as
// errors, as are durability initialization failures.
func OpenErr(opts ...Option) (*Runtime, error) {
	s := fold(opts)
	if err := s.conflicts(); err != nil {
		return nil, err
	}
	rt := newRuntime(s)
	if s.dur != nil {
		if err := openDurable(rt, s.dur, 0, 0, true); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// Thread returns (creating on first use) the execution context for
// worker id. Safe for concurrent use; each Thread must then be used by
// one goroutine at a time.
func (rt *Runtime) Thread(id int) *Thread {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if th, ok := rt.threads[id]; ok {
		return th
	}
	th := &Thread{rt: rt, th: rt.rt.Thread(id)}
	rt.threads[id] = th
	return th
}

// Parallel runs worker on nthreads goroutines, each bound to its own
// Thread, and waits for all of them.
func (rt *Runtime) Parallel(nthreads int, worker func(th *Thread, tid, ntotal int)) {
	var wg sync.WaitGroup
	for i := 0; i < nthreads; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			worker(rt.Thread(tid), tid, nthreads)
		}(i)
	}
	wg.Wait()
}

// AllocGlobal allocates n words in the globals region (never freed)
// and returns a definitely-shared reference to them. Use it for the
// data structures transactions contend on.
func (rt *Runtime) AllocGlobal(n int) Struct {
	return Struct{base: rt.rt.Space().AllocGlobal(n), size: n, acc: stm.AccShared}
}

// Engine names the barrier engine this runtime compiled its
// configuration into: "counting" for instrumented profiles, a "perf-*"
// specialization under WithPerfMode, or "generic" when forced with
// WithEngine(EngineGeneric). With WithPhases the name carries a
// "+phases" marker; EngineFor and Snapshot().Phases give the per-phase
// breakdown.
func (rt *Runtime) Engine() string { return rt.rt.Engine() }

// EngineFor names the barrier engine compiled for the given declared
// phase kind ("" is the default phase; undeclared kinds report the
// default engine, mirroring EnterPhase's hint semantics).
func (rt *Runtime) EngineFor(kind Phase) string { return rt.rt.EngineFor(kind) }

// Phases returns the phase kinds declared with WithPhases, in
// declaration order (empty without phases; the implicit default phase
// is not listed).
func (rt *Runtime) Phases() []Phase { return rt.rt.PhaseKinds() }

// PhaseStats is one row of the per-phase statistics breakdown: the
// phase kind ("" for the default phase), the engine its profile
// compiled to, and the counters of every transaction run in the phase.
type PhaseStats = stm.PhaseStats

// ResetStats zeroes every thread's counters (e.g. between an untimed
// setup phase and the timed parallel phase). Not safe to call while
// worker threads are running.
func (rt *Runtime) ResetStats() { rt.rt.ResetStats() }

// Validate panics if any ownership record is still locked — a
// debugging aid for tests (all transactions must have released
// ownership once their threads are joined).
func (rt *Runtime) Validate() { rt.rt.Validate() }

// Unwrap returns the low-level engine runtime. It is the escape hatch
// the in-tree STAMP ports and the TL interpreter use; code written
// against this package should not need it.
func (rt *Runtime) Unwrap() *stm.Runtime { return rt.rt }

// Thread is a per-worker execution context. A Thread must be used by
// one goroutine at a time.
type Thread struct {
	rt *Runtime
	th *stm.Thread
	tx Tx
}

// ID returns the worker id of this thread.
func (t *Thread) ID() int { return t.th.ID() }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// Atomic executes fn as a transaction, retrying on conflicts until it
// commits. If fn calls Tx.Abort, the (innermost) transaction rolls
// back and Atomic returns false; otherwise it returns true. Calling
// Atomic inside a transaction runs fn as a closed nested transaction
// with partial abort. On a durable runtime it returns once the commit's
// redo record is durable. It reports no log error: a record the redo
// log refused (a failed segment write or rotation, which is sticky)
// surfaces in the ack of the enclosing Batcher.Flush (BatchResult.Wait)
// or stm-level Thread.Deferred scope, and in Runtime.Sync and Close.
func (t *Thread) Atomic(fn func(*Tx)) bool {
	return t.th.Atomic(func(stx *stm.Tx) {
		t.tx.tx = stx
		t.tx.th = t
		fn(&t.tx)
	})
}

// Alloc allocates n words outside any transaction. The block is
// reachable by every thread, so its references carry unknown
// provenance; annotate it with AddPrivateBlock if it is genuinely
// thread-private.
func (t *Thread) Alloc(n int) Struct {
	return Struct{base: t.th.Alloc(n), size: n, acc: stm.AccAuto}
}

// Free frees a block outside any transaction.
func (t *Thread) Free(s Struct) { t.th.Free(s.base) }

// AddPrivateBlock annotates the block as thread-local or read-only:
// safe to access inside transactions without STM barriers (the paper's
// addPrivateMemoryBlock, Fig. 7). Requires WithAnnotations. Incorrect
// use can introduce data races, exactly as in the paper. The reference
// must know its size (come from Alloc/AllocGlobal/Tx.Alloc).
func (t *Thread) AddPrivateBlock(s Struct) {
	t.th.AddPrivateBlock(s.base, s.mustLen("AddPrivateBlock"))
}

// RemovePrivateBlock ends the annotation for the block (the paper's
// removePrivateMemoryBlock).
func (t *Thread) RemovePrivateBlock(s Struct) {
	t.th.RemovePrivateBlock(s.base, s.mustLen("RemovePrivateBlock"))
}

// EnterPhase hints that this thread's upcoming transactions belong to
// the given phase kind, switching onto that phase's compiled barrier
// engine. Hints are free to give unconditionally: a kind the runtime
// did not declare selects the default engine. Called inside a
// transaction, the switch is deferred until the enclosing top-level
// transaction (including its retries) has ended — engines never change
// mid-transaction.
func (t *Thread) EnterPhase(kind Phase) { t.th.EnterPhase(kind) }

// Phase returns the kind of the phase this thread currently executes
// in ("" for the default phase).
func (t *Thread) Phase() Phase { return t.th.Phase() }

// Stats returns this thread's counters for its current phase (read
// after joining; without declared phases this is all of the thread's
// accounting).
func (t *Thread) Stats() *Stats { return t.th.Stats() }

// Tx is a transaction descriptor, valid only inside the Atomic call
// that supplied it.
type Tx struct {
	tx *stm.Tx
	th *Thread
}

// Thread returns the owning thread.
func (tx *Tx) Thread() *Thread { return tx.th }

// Alloc allocates n words inside the transaction. The memory is
// captured — invisible to every other transaction until commit — so
// the returned reference carries fresh provenance and its accesses
// are elidable both statically and by the runtime checks.
func (tx *Tx) Alloc(n int) Struct {
	return Struct{base: tx.tx.Alloc(n), size: n, acc: stm.AccFresh}
}

// StackAlloc allocates an n-word frame on the transaction-local stack;
// it is reclaimed automatically when the top-level transaction ends.
// The reference carries stack provenance (dead on abort, invisible to
// other threads).
func (tx *Tx) StackAlloc(n int) Struct {
	return Struct{base: tx.tx.StackAlloc(n), size: n, acc: stm.AccStack}
}

// Free frees a block inside the transaction. Blocks allocated by this
// transaction are reclaimed immediately; pre-existing blocks are freed
// only when the transaction commits, so aborts can undo the free.
func (tx *Tx) Free(s Struct) { tx.tx.Free(s.base) }

// Abort rolls back the innermost transaction; the enclosing Atomic
// returns false.
func (tx *Tx) Abort() { tx.tx.UserAbort() }

// Restart abandons the current attempt and retries the top-level
// transaction from scratch.
func (tx *Tx) Restart() { tx.tx.Restart() }

// Attempt returns the 1-based attempt number of the current top-level
// transaction (>1 after conflicts).
func (tx *Tx) Attempt() int { return tx.tx.Attempt() }

// Depth returns the current nesting depth (1 = top level).
func (tx *Tx) Depth() int { return tx.tx.Depth() }

// Unwrap returns the low-level engine transaction, the per-transaction
// counterpart of Runtime.Unwrap. It is the escape hatch adapters over
// the in-tree scenarios use; code written against this package should
// not need it.
func (tx *Tx) Unwrap() *stm.Tx { return tx.tx }
