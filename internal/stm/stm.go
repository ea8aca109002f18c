// Package stm implements the software transactional memory runtime
// the paper's optimizations live in: a McRT/Intel-C++-STM-class system
// with cache-line-granularity ownership records, encounter-time (eager)
// write locking, in-place updates with an undo log, optimistic
// invisible readers validated against a global version clock, and the
// paper's contention management: randomized exponential backoff
// between a conflict abort and the retry.
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
//	stm.go        Runtime, Thread, the Atomic retry loop and its backoff
//	phase.go      the compiled engine table; EnterPhase switches between
//	              transactions
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
// compiled per phase (newEngine), once per Runtime. Set-up and
// validation code run on neither: inside Thread.Exclusive, while no
// other thread transacts, a thread uses the exclusive pair, which
// takes no orec.
package stm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
	space *mem.Space
	// orecs is the ownership-record table, 1<<DefaultOrecBits entries.
	// Like the space it comes from mem.NewWords: on unix a mapping the
	// kernel zeroes page by page as barriers first touch it, released
	// once the Runtime is unreachable, so opening a runtime costs no
	// 2 MiB clear and a run pays for the orecs its addresses map to.
	orecs []atomic.Uint64

	// clock is bumped by every writing commit and read by every begin.
	// It has a cache line of its own, so a bump does not invalidate the
	// line holding space and orecs, which every barrier on every thread
	// reads.
	_     [lineBytes - 8]byte
	clock atomic.Uint64
	_     [lineBytes - 8]byte

	cfg OptConfig

	// phases is the compiled engine table (phase.go): index 0 is the
	// default phase's engine, compiled once from cfg; declared phases
	// follow in declaration order. phaseIdx maps a declared kind to its
	// table index; an undeclared kind reads 0, the default phase.
	phases   []compiledPhase
	phaseIdx map[string]int

	// seqs[i] is thread i's quiescence counter: odd while inside a
	// transaction, even otherwise. It drives the epoch-based deferred
	// reuse of transactionally freed blocks (McRT-malloc style): a
	// freed block is recycled only once every thread observed at an
	// odd count has since finished that transaction, so no optimistic
	// (zombie) reader can still dereference into it. Each slot has a
	// cache line of its own: its owner bumps it twice per transaction.
	seqs []seqSlot

	// created holds the ids of the threads created so far. Thread
	// publishes a fresh copy under mu, so enqueueLimbo reads it with one
	// atomic load and scans only those threads' seqs slots.
	created atomic.Pointer[[]int32]

	// durable, when non-nil, is the redo log every state-changing event
	// is serialized into (durable.go). Off, every durability hook is one
	// nil check — the commit path is otherwise unchanged.
	durable *wal.Log

	mu      sync.Mutex
	threads map[int]*Thread

	// excl is the thread inside an Exclusive scope, nil outside one. It
	// is written under mu by that thread only; applyPhase reads it
	// without mu, on whichever thread switches phase.
	excl atomic.Pointer[Thread]
}

// New creates a runtime over a fresh address space. It panics if a
// lock word cannot hold every thread id below mcfg.MaxThreads.
func New(mcfg mem.Config, cfg OptConfig) *Runtime {
	if mcfg.MaxThreads > 1<<ownerBits {
		panic(fmt.Sprintf("stm: MaxThreads %d exceeds the %d owners a lock word holds", mcfg.MaxThreads, 1<<ownerBits))
	}
	phases, phaseIdx := compilePhases(cfg)
	rt := &Runtime{
		space:    mem.NewSpace(mcfg),
		cfg:      cfg,
		phases:   phases,
		phaseIdx: phaseIdx,
		seqs:     make([]seqSlot, mcfg.MaxThreads),
		threads:  make(map[int]*Thread),
	}
	rt.orecs = mem.NewWords[atomic.Uint64](rt, 1<<DefaultOrecBits)
	return rt
}

// lineBytes is the cache-line size the runtime pads its per-thread and
// hot shared words to.
const lineBytes = 64

// seqSlot is one thread's quiescence counter (Runtime.seqs), padded to
// a cache line so that no two threads' counters share one.
type seqSlot struct {
	atomic.Uint64
	_ [lineBytes - 8]byte
}

// Engine names the barrier engine compiled for this runtime's default
// phase ("generic", "counting", or a "perf-*" specialization). When
// phases are declared the name carries a "+phases" marker — the
// per-phase breakdown is EngineFor and PhaseStats.
func (rt *Runtime) Engine() string {
	name := rt.phases[0].eng.name
	if len(rt.phases) > 1 {
		name += "+phases"
	}
	return name
}

// Space returns the simulated address space (for non-transactional
// setup and validation code).
func (rt *Runtime) Space() *mem.Space { return rt.space }

// Config returns the active optimization configuration.
func (rt *Runtime) Config() OptConfig { return rt.cfg }

// orecIndex maps an address to its ownership record: its cache line
// (8 words) modulo the table size, in TinySTM's address order
// (LOCK_IDX), so 8 neighbouring lines share one cache line of orecs and
// any 1<<DefaultOrecBits consecutive lines map one-to-one onto them;
// lines further apart can collide (false conflicts, Sec. 2.2).
func (rt *Runtime) orecIndex(a mem.Addr) uint64 {
	return uint64(a) / mem.LineWords & (1<<DefaultOrecBits - 1)
}

// Orec word encoding: unlocked orecs hold version<<1 (even); locked
// orecs hold 1 | owner<<1 | widx<<(1+ownerBits), where widx indexes the
// owner's writeEntry, which keeps the word the lock replaced.
const ownerBits = 16

func orecLocked(v uint64) bool         { return v&1 == 1 }
func orecOwner(v uint64) int           { return int(v >> 1 & (1<<ownerBits - 1)) }
func orecWriteIdx(v uint64) int        { return int(v >> (1 + ownerBits)) }
func orecVersion(v uint64) uint64      { return v >> 1 }
func orecLockWord(id, widx int) uint64 { return uint64(widx)<<(1+ownerBits) | uint64(id)<<1 | 1 }

// Thread is a per-worker execution context: the simulated stack, the
// heap allocation cache, the annotated-private-data log, statistics,
// and the (reused) transaction descriptor. A Thread must be used by
// one goroutine at a time.
type Thread struct {
	rt *Runtime
	id int
	// stack and alloc are held by value, inside this Thread's own
	// allocation: allocated separately, two threads' stack pointers and
	// allocator caches would sit side by side, and every Push, Pop and
	// Alloc on one would invalidate the other's line.
	stack mem.Stack
	alloc mem.Allocator
	priv  *capture.Tree // thread-local/read-only annotations (Sec. 3.1.3)
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

	// backoffAcc sinks the backoff spin loop's result so it cannot be
	// optimized away — per-thread, so backing off never touches shared
	// cache lines.
	backoffAcc uint64

	limbo []limboBatch // committed frees awaiting quiescence

	// Redo-record scratch (durable.go): the record descriptor and the
	// flat value buffer its spans are carved from, reused per thread,
	// and the words the thread's records carried, by source.
	drec   wal.Record
	dvals  []uint64
	dwords durWords

	// ack is the redo-log ack the latest top-level transaction's result
	// must wait for. Atomic waits for it and clears it, except inside a
	// Deferred scope (deferred set), which returns it to its caller.
	ack      wal.Ack
	deferred bool

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
	// A thread missing from created begins its first transaction after
	// this commit, so it cannot hold one of these blocks.
	for _, id := range *th.rt.created.Load() {
		if s := th.rt.seqs[id].Load(); s%2 == 1 {
			b.ids = append(b.ids, id)
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
	if owner := rt.excl.Load(); owner != nil {
		panic(fmt.Sprintf("stm: thread %d created inside thread %d's Exclusive scope", id, owner.id))
	}
	th := &Thread{
		rt:           rt,
		id:           id,
		stack:        *mem.NewStack(rt.space, id),
		alloc:        *mem.NewAllocator(rt.space),
		priv:         capture.NewTree(),
		rng:          uint64(id)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D,
		phaseStats:   make([]Stats, len(rt.phases)),
		pendingPhase: -1,
	}
	th.stats = &th.phaseStats[0]
	th.tx.init(th)
	rt.threads[id] = th
	var ids []int32
	if p := rt.created.Load(); p != nil {
		ids = *p
	}
	ids = append(ids[:len(ids):len(ids)], int32(id)) // copy: readers hold the old slice
	rt.created.Store(&ids)
	return th
}

// ResetStats zeroes every thread's counters. The harness calls it
// between a workload's setup and the timed parallel phase, so reported
// statistics cover only the latter. Setup runs inside an Exclusive
// scope, uninstrumented as the paper's setup code was, so what it
// leaves behind is its commit counts, not barrier counts. Not safe to
// call while worker threads are running.
func (rt *Runtime) ResetStats() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, th := range rt.threads {
		for i := range th.phaseStats {
			th.phaseStats[i] = Stats{}
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

// Exclusive runs fn with th as the only thread of the runtime that
// transacts: every word fn's transactions touch is captured, since no
// other thread runs a transaction that could reach it. The paper ran
// the code around its timed phase uninstrumented; this is that, with
// the transaction semantics kept. Set-up runs in it before the workers
// exist, and validation after they have joined.
// Inside the scope th's transactions use the exclusive barrier pair
// (engine.go) whatever phase they run in: a load is a plain load, and a
// store to memory the profile does not already capture takes an undo
// entry and no lock — the rule of the paper's annotated private data
// (Sec. 3.1.3), applied to every word. So nothing acquires an orec,
// fills a read set or bumps the clock, while user aborts, partial
// aborts, Restart, frees and the redo log work as before: rollback
// runs from the undo log, and a durable commit with no orecs is
// recorded from its undo log, allocations and stack like any other.
//
// Every other thread the runtime has created must be quiescent when
// the scope starts (outside a transaction) and must start no
// transaction before it ends. Exclusive checks both on the threads'
// quiescence counters, and panics naming the first thread that fails
// either; the exit check runs when fn returns, so it reports a race
// after the fact rather than preventing it. The entry check's atomic
// loads also order every other thread's last commit before the scope:
// fn reads what those threads committed. Exclusive also panics when
// called inside a transaction or inside another thread's scope, and
// inside the scope Runtime.Thread panics for an id it has not created
// yet. A thread that transacts after the scope must be ordered after
// it, as threads created after it are by the runtime's mutex and
// joined workers are by their join. A nested call just runs fn.
func (th *Thread) Exclusive(fn func()) {
	rt := th.rt
	if th.tx.active {
		panic("stm: Exclusive inside a transaction")
	}
	rt.mu.Lock()
	switch owner := rt.excl.Load(); {
	case owner == th:
		rt.mu.Unlock()
		fn()
		return
	case owner != nil:
		rt.mu.Unlock()
		panic(fmt.Sprintf("stm: Exclusive on thread %d inside thread %d's Exclusive scope", th.id, owner.id))
	}
	ids := *rt.created.Load() // fixed while the scope runs: Thread creates none
	seen := make([]uint64, len(ids))
	for i, id := range ids {
		if seen[i] = rt.seqs[id].Load(); seen[i]%2 == 1 { // th is outside a transaction: its own is even
			rt.mu.Unlock()
			panic(fmt.Sprintf("stm: Exclusive on thread %d while thread %d is inside a transaction", th.id, id))
		}
	}
	rt.excl.Store(th)
	rt.mu.Unlock()
	th.tx.applyPhase(th.phase)
	defer func() {
		rt.mu.Lock()
		rt.excl.Store(nil)
		rt.mu.Unlock()
		th.tx.applyPhase(th.phase)
	}()
	fn()
	for i, id := range ids {
		if int(id) != th.id && rt.seqs[id].Load() != seen[i] {
			panic(fmt.Sprintf("stm: thread %d ran a transaction inside thread %d's Exclusive scope", id, th.id))
		}
	}
}

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
// with partial abort. With a redo log attached it returns once the
// commit's record is durable; a refused record's error is reported by
// the Deferred scope's ack and by the log's Sync/Close, not here.
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
			// The attempt has fully unwound — abortTop released every
			// orec — so the thread backs off holding nothing.
			th.backoffSpin(tx.attempts)
			continue
		}
		tx.attempts = 0
		tx.upNext = false // full-engine fallback is per transaction
		if th.ack != (wal.Ack{}) && !th.deferred {
			// Return once the commit is durable.
			th.ack.Wait()
			th.ack = wal.Ack{}
		}
		if th.pendingPhase >= 0 {
			th.setPhase(th.pendingPhase)
		}
		return !aborted
	}
}

// Deferred runs fn with the durability wait lifted from this thread's
// top-level transactions: inside fn, Atomic returns at commit, before
// the commit's redo record is durable. Deferred returns the ack that
// covers all of them — the latest one's, since one flusher syncs the
// log in append order. A transaction that wrote no record (read-only,
// or user-aborted) contributes the log's tail ack at its end, so a
// result that only read another thread's commit is not revealed before
// that commit is durable either. The caller must wait for the ack
// before it reveals anything fn computed. Without a redo log the ack
// is zero. A nested scope belongs to the outermost one.
func (th *Thread) Deferred(fn func()) wal.Ack {
	if th.deferred {
		fn()
		return th.ack
	}
	th.deferred = true
	defer func() { th.deferred = false }()
	fn()
	ack := th.ack
	th.ack = wal.Ack{}
	return ack
}

// backoffSpin is the paper's contention management, randomized
// exponential backoff: between a conflict abort and the retry, spin a
// random number of iterations below a bound that doubles with each lost
// attempt (up to 16<<10), and yield the processor once the transaction
// keeps losing. Stats.Waits counts the spins and Stats.WaitNs is the
// time they took — lifecycle accounting like Commits/Aborts, kept
// under PerfMode and attributed to the phase the transaction ran in.
func (th *Thread) backoffSpin(attempt int) {
	if attempt <= 0 {
		return
	}
	start := time.Now()
	k := attempt
	if k > 10 {
		k = 10
	}
	spins := int(th.nextRand() % uint64(16<<k))
	var acc uint64
	for i := 0; i < spins; i++ {
		acc += uint64(i)
	}
	th.backoffAcc += acc
	if attempt > 4 {
		runtime.Gosched()
	}
	th.stats.Waits++
	th.stats.WaitNs += uint64(time.Since(start))
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
