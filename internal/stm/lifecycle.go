package stm

import (
	"fmt"

	"repro/internal/capture"
	"repro/internal/mem"
)

// This file is the transaction lifecycle layer: the Tx descriptor, top-
// level begin/commit/abort, closed nesting with partial abort, and
// timestamp extension. The barrier hot paths live in barrier.go and
// engine.go; the logs they maintain live in logs.go.

// Tx is a transaction descriptor. It is owned by its Thread and reused
// across transactions; user code receives it from Thread.Atomic.
type Tx struct {
	th     *Thread
	active bool

	rv       uint64   // read version (global clock snapshot)
	startSP  mem.Addr // stack pointer at transaction begin (Fig. 3)
	depth    int32
	epoch    uint64 // distinguishes attempts in the WAW filter
	attempts int

	readset []readEntry
	writes  []writeEntry // indexed by our lock words (orecLockWord)
	undo    []undoEntry

	allocs []allocRec
	frees  []mem.Addr // deferred frees of pre-existing blocks

	clog *capture.Tree // allocation log of the Counting mode's classifier

	// load and store are the current phase's barrier entry points,
	// compiled once per Runtime from the phase's optimization profile
	// (engine.go), or the exclusive pair inside Thread.Exclusive, and
	// assigned only by applyPhase. Tx.Load and Tx.Store
	// dispatch through them, so the perf engines never re-test the
	// configuration booleans below.
	load  loadFn
	store storeFn

	// eng is the current phase's compiled engine. The remaining fields
	// are the read-mostly mode of an eng.rm engine (barrier.go):
	//
	// unlogged is the mode bit itself: while set, readFull validates
	// against the snapshot without logging and writeFull upgrades before
	// doing anything else. beginTop sets it, the upgrade and finish clear
	// it. upgraded marks an eng.rm attempt running logged — after an
	// in-flight upgrade, or from its first access (upNext, retry bound).
	//
	// rmUnlogged marks an attempt that BEGAN unlogged: its pre-upgrade
	// reads were validated at read time but never logged, so extend and
	// commitTop must prove no foreign commit intervened instead of
	// revalidating a read set. selfBumps counts the clock bumps this
	// attempt itself performed (nested partial aborts release orecs with
	// fresh versions): clock == rv+selfBumps proves exactly that. upNext
	// asks beginTop to run the next attempt of this transaction logged
	// from the start — set when an upgrade or an unlogged-read
	// revalidation finds foreign commits, so the retry logs its reads
	// and proceeds normally.
	eng        *engine
	unlogged   bool
	upgraded   bool
	rmUnlogged bool
	upNext     bool
	selfBumps  uint64

	// nursery and alog are runtime capture's record of the blocks this
	// transaction allocated (both unused when the phase checks no heap
	// accesses). The two nursery runs take the blocks allocated back to
	// back — bump-carved ones, and the first recycled block — so their
	// capture test is two compares (inNursery). Any other block goes to
	// alog, the allocation log, and sets the bits of the 512-word zones
	// it touches in allocZones. An address whose zone bit is clear costs
	// one compare more (inAllocZone) and never probes the log, however
	// far apart the logged blocks lie. In a set zone, [hitLo,
	// hitLo+hitSpan), the block the last probe found, answers before the
	// log (inLastHit). A transaction whose blocks all fit in runs never
	// probes the log. The logs live in phaseLogs, one cached pair per
	// phase (built lazily on first entry), so flipping phases between
	// transactions allocates nothing on the steady state.
	nursery    [2]nurseryRun
	alog       *capture.Tree
	allocZones uint64
	hitLo      mem.Addr
	hitSpan    uint64
	phaseLogs  []phaseLogSet

	waw [wawSlots]wawEntry

	saves []savepoint

	// cached config decisions the interpreting chain (engines generic
	// and counting) re-tests per access; the perf engines bake them into
	// code.
	trackAlog   bool
	useWAW      bool
	keepStats   bool
	counting    bool
	compiler    bool
	annotations bool
	readStack   bool
	readHeap    bool
	writeStack  bool
	writeHeap   bool

	verify     bool // VerifyElision oracle enabled
	skipShared bool // definitely-shared extension enabled

	// curSP mirrors the thread's stack pointer so the Fig. 4 range
	// check touches only the (cache-hot) descriptor.
	curSP mem.Addr
}

func (tx *Tx) init(th *Thread) {
	tx.th = th
	tx.applyPhase(0)
}

// phaseLogSet caches one phase's concrete capture logs, so switching
// back and forth between phases — the tmmsg driver hints once per
// operation — reuses the logs built on its first entry instead of
// reallocating.
type phaseLogSet struct {
	alog, clog *capture.Tree
}

// applyPhase points the descriptor at one compiled phase: the engine's
// barrier pair plus the cached configuration decisions the instrumented
// chains re-test per access. Inside an Exclusive scope the exclusive
// pair replaces the engine's. It must only run between transactions
// (setPhase and Exclusive enforce this); the logs it selects are empty
// then, so no captured range can leak across a switch.
func (tx *Tx) applyPhase(idx int) {
	ph := &tx.th.rt.phases[idx]
	cfg := &ph.cfg
	tx.eng = ph.eng
	tx.upNext = false
	tx.load = ph.eng.load
	tx.store = ph.eng.store
	if tx.th.rt.excl == tx.th {
		tx.load, tx.store = loadExclusive, storeExclusive
	}
	tx.trackAlog = cfg.Read.Heap || cfg.Write.Heap
	tx.useWAW = !cfg.NoWAWFilter
	tx.keepStats = !cfg.PerfMode
	tx.counting = cfg.Counting
	tx.compiler = cfg.Compiler
	tx.annotations = cfg.Annotations
	tx.readStack = cfg.Read.Stack
	tx.readHeap = cfg.Read.Heap
	tx.writeStack = cfg.Write.Stack
	tx.writeHeap = cfg.Write.Heap
	tx.verify = cfg.VerifyElision
	tx.skipShared = cfg.SkipSharedChecks
	if tx.phaseLogs == nil {
		tx.phaseLogs = make([]phaseLogSet, len(tx.th.rt.phases))
	}
	pl := &tx.phaseLogs[idx]
	tx.alog = nil
	if tx.trackAlog {
		if pl.alog == nil {
			pl.alog = capture.NewTree()
		}
		tx.alog = pl.alog
	}
	tx.clog = nil
	if cfg.Counting {
		if pl.clog == nil {
			pl.clog = capture.NewTree()
		}
		tx.clog = pl.clog
	}
}

// Thread returns the owning thread.
func (tx *Tx) Thread() *Thread { return tx.th }

// Depth returns the current nesting depth (1 = top level).
func (tx *Tx) Depth() int { return int(tx.depth) }

// Attempt returns the 1-based attempt number of the current top-level
// transaction (>1 after conflicts).
func (tx *Tx) Attempt() int { return tx.attempts }

// rmFallbackAttempt bounds read-mostly retries: from this attempt on,
// the transaction runs logged, so its reads survive concurrent commits
// via extension. Without the bound, a long unlogged scan racing a steady
// writer could retry forever — an unlogged read cannot extend past a
// foreign commit.
const rmFallbackAttempt = 3

func (tx *Tx) beginTop() {
	tx.active = true
	tx.attempts++
	tx.epoch++
	tx.depth = 1
	tx.th.rt.seqs[tx.th.id].Add(1) // now odd: in transaction
	tx.rv = tx.th.rt.clock.Load()
	tx.selfBumps = 0
	if tx.eng.rm {
		// Run logged from the first access when a previous attempt's
		// upgrade found foreign commits past its snapshot (upNext) or
		// retries keep failing; extension and validation then work
		// normally. Otherwise the attempt starts unlogged.
		tx.upgraded = tx.upNext || tx.attempts >= rmFallbackAttempt
		tx.unlogged = !tx.upgraded
		tx.rmUnlogged = tx.unlogged
	}
	tx.startSP = tx.th.stack.SP()
	tx.curSP = tx.startSP
}

// conflict abandons the current attempt; Atomic backs off and retries.
func (tx *Tx) conflict() {
	panic(retrySignal{})
}

// UserAbort rolls back the innermost transaction; Atomic returns
// false. This is the paper's user abort (Sec. 2.2.1).
func (tx *Tx) UserAbort() {
	panic(userAbort{})
}

// Restart abandons the attempt and retries the top-level transaction
// from scratch (STAMP's TM_RESTART).
func (tx *Tx) Restart() {
	tx.conflict()
}

// verifyCaptured is the soundness oracle behind OptConfig.VerifyElision:
// a statically elided access must target memory the precise dynamic
// analysis confirms captured.
func (tx *Tx) verifyCaptured(a mem.Addr) {
	if tx.onTxStack(a) || tx.clog.Contains(a, 1) {
		return
	}
	panic(fmt.Sprintf("stm: compiler elided a non-captured access to %d", a))
}

// --- Commit / abort ---

func (tx *Tx) commitTop() {
	th := tx.th
	rt := th.rt
	if len(tx.writes) > 0 {
		wv := rt.clock.Add(1)
		if wv != tx.rv+1 {
			if tx.rmUnlogged {
				// The attempt upgraded in-flight: its pre-upgrade reads are
				// unlogged, so the read set cannot vouch for them.
				// Committing is sound exactly when every clock bump since
				// the snapshot was this attempt's own (nested partial
				// aborts); otherwise retry logged from the start.
				if wv != tx.rv+tx.selfBumps+1 {
					tx.upNext = true
					tx.conflict() // unwinds into abortTop
				}
			} else if !tx.validate(rt) {
				tx.conflict() // unwinds into abortTop
			}
		}
		if rt.durable != nil {
			// Enqueue the redo record while we still own every orec, so
			// log order respects conflict order. Nobody waits here: the
			// ack goes to Thread.Atomic, or to the Deferred scope's caller.
			th.ack = tx.durableCommit(wv)
		}
		rel := wv << 1
		for i := range tx.writes {
			rt.orecs[tx.writes[i].oi].Store(rel)
		}
	} else if rt.durable != nil {
		if tx.durableDirty() {
			// No orecs acquired, but memory changed anyway: annotated-
			// private writes, captured allocations, or stack growth.
			th.ack = tx.durableCommit(rt.clock.Load())
		} else if th.deferred {
			// Nothing to log, but what the transaction read may be a
			// commit whose record is not yet durable.
			th.ack = rt.durable.TailAck()
		}
	}
	// Deferred frees become effective now that the transaction has
	// committed, but the blocks are recycled only after every in-flight
	// transaction has finished (zombie readers may still dereference
	// into them), via the per-thread limbo list.
	if len(tx.frees) > 0 {
		th.enqueueLimbo(tx.frees)
	}
	th.stack.Pop(tx.startSP)
	th.stats.Commits++
	tx.finish()
	rt.seqs[th.id].Add(1) // now even: quiescent
	th.drainLimbo()
}

// abortTop rolls the whole transaction back. retried distinguishes
// conflict aborts (counted in Stats.Aborts, the paper's Table 1
// numerator) from user aborts that will not be retried.
func (tx *Tx) abortTop(retried bool) {
	rt := tx.th.rt
	// Roll back in-place updates in reverse order.
	for i := len(tx.undo) - 1; i >= 0; i-- {
		rt.space.Store(tx.undo[i].addr, tx.undo[i].val)
	}
	if rt.durable != nil && tx.durableDirty() {
		// The attempt's residue (restored words, alloc-block scribbles,
		// stack garbage) is checksum-visible state; record it before the
		// orecs are released so no conflicting commit can order ahead.
		tx.durableAbort()
	}
	if !retried && tx.th.deferred && rt.durable != nil {
		// The abort is a result too, and it may rest on reads of a
		// commit that is not yet durable.
		tx.th.ack = rt.durable.TailAck()
	}
	// Release ownership with a fresh version so concurrent optimistic
	// readers of our speculative values cannot validate (ABA safety).
	if len(tx.writes) > 0 {
		rel := rt.clock.Add(1) << 1
		for i := range tx.writes {
			rt.orecs[tx.writes[i].oi].Store(rel)
		}
	}
	// Speculative allocations die with the transaction.
	for i := len(tx.allocs) - 1; i >= 0; i-- {
		if !tx.allocs[i].dead {
			tx.th.alloc.Free(tx.allocs[i].addr)
		}
	}
	// Deferred frees are dropped: the blocks were never freed.
	tx.th.stack.Pop(tx.startSP)
	if retried {
		tx.th.stats.Aborts++
	} else {
		tx.th.stats.UserAborts++
	}
	tx.finish()
	tx.th.rt.seqs[tx.th.id].Add(1) // now even: quiescent
}

func (tx *Tx) finish() {
	tx.active = false
	tx.depth = 0
	// Leave read-mostly mode: the next attempt (a retry of this
	// transaction or a fresh one) decides its own mode in beginTop.
	tx.unlogged, tx.upgraded, tx.rmUnlogged = false, false, false
	tx.readset = tx.readset[:0]
	tx.writes = tx.writes[:0]
	tx.undo = tx.undo[:0]
	tx.allocs = tx.allocs[:0]
	tx.frees = tx.frees[:0]
	tx.saves = tx.saves[:0]
	if tx.alog != nil {
		tx.alog.Clear()
		tx.allocZones, tx.hitSpan = 0, 0
		tx.nursery[0].span, tx.nursery[1].span = 0, 0
	}
	if tx.clog != nil {
		tx.clog.Clear()
	}
}

// extend revalidates the read set against the current clock, raising
// rv (TL2-style timestamp extension). An attempt that began unlogged
// has reads the read set cannot vouch for: it may extend only past its
// own clock bumps (nested partial aborts re-version the orecs it
// released, but the undo replay restored the exact values, so unlogged
// reads of them stay valid); any foreign commit in the window forces a
// retry — logged from the start if the attempt had already upgraded,
// since it would hit the same wall again.
func (tx *Tx) extend() {
	rt := tx.th.rt
	newRv := rt.clock.Load()
	if tx.rmUnlogged {
		if newRv != tx.rv+tx.selfBumps {
			tx.upNext = tx.upgraded
			tx.conflict()
		}
		tx.rv = newRv
		tx.selfBumps = 0
		return
	}
	if !tx.validate(rt) {
		tx.conflict()
	}
	tx.rv = newRv
}

// --- Nesting (closed, with partial abort) ---

func (tx *Tx) beginNested() {
	tx.saves = append(tx.saves, savepoint{
		read:  len(tx.readset),
		write: len(tx.writes),
		undo:  len(tx.undo),
		alloc: len(tx.allocs),
		free:  len(tx.frees),
		sp:    tx.th.stack.SP(),
		runs:  [2]uint64{tx.nursery[0].span, tx.nursery[1].span},
	})
	tx.depth++
}

func (tx *Tx) commitNested() {
	// Closed nesting: merge into the parent by dropping the savepoint.
	tx.saves = tx.saves[:len(tx.saves)-1]
	tx.depth--
}

// abortNested rolls the transaction back to the innermost savepoint:
// partial abort (Sec. 2.2.1).
func (tx *Tx) abortNested() {
	rt := tx.th.rt
	sp := tx.saves[len(tx.saves)-1]
	for i := len(tx.undo) - 1; i >= sp.undo; i-- {
		rt.space.Store(tx.undo[i].addr, tx.undo[i].val)
	}
	if rt.durable != nil {
		// The scope's orecs are released below, so a foreign commit could
		// otherwise overwrite these words and still log *before* our
		// eventual top-level record; emit the replayed range now, while
		// we still hold them. Thread-private residue (scope allocations,
		// popped frames) cannot race and is left to the top-level record,
		// whose stack span [curSP, startSP) and allocation dump cover it.
		tx.durableNestedAbort(sp.undo, sp.alloc)
	}
	if len(tx.writes) > sp.write {
		rel := rt.clock.Add(1) << 1
		tx.selfBumps++ // our own bump: unlogged-read revalidation allows it
		for i := sp.write; i < len(tx.writes); i++ {
			rt.orecs[tx.writes[i].oi].Store(rel)
		}
		// The version bump protects concurrent optimistic readers from
		// the speculative values (ABA), but it must not invalidate the
		// *enclosing* transaction's own reads: the undo replay above
		// restored the exact values, so the outer read set stays
		// semantically valid. Repair its entries for the released
		// records to the new version — otherwise the outer transaction
		// livelocks re-validating against versions it bumped itself.
		for j := range tx.readset {
			re := &tx.readset[j]
			for i := sp.write; i < len(tx.writes); i++ {
				if re.oi == tx.writes[i].oi {
					re.v = rel
					break
				}
			}
		}
	}
	for i := len(tx.allocs) - 1; i >= sp.alloc; i-- {
		a := &tx.allocs[i]
		if !a.dead {
			tx.removeFromLogs(a.addr, a.size)
			tx.th.alloc.Free(a.addr)
		}
	}
	// The runs lose the scope's blocks (after the loop above, which
	// tells run blocks from logged ones): they only grew since sp.
	tx.nursery[0].span, tx.nursery[1].span = sp.runs[0], sp.runs[1]
	tx.readset = tx.readset[:sp.read]
	tx.writes = tx.writes[:sp.write]
	tx.undo = tx.undo[:sp.undo]
	tx.allocs = tx.allocs[:sp.alloc]
	tx.frees = tx.frees[:sp.free]
	tx.th.stack.Pop(sp.sp)
	tx.saves = tx.saves[:len(tx.saves)-1]
	tx.depth--
}
