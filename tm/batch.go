package tm

import "repro/internal/wal"

// Application-side transaction merging: a Batcher coalesces several
// small units of work (server requests, typically) into ONE merged
// transaction when their declared footprints are compatible, amortizing
// begin/commit bookkeeping and ownership-record traffic across the
// batch — and, in this runtime, turning every request's reply assembly
// into captured-memory stores the elision machinery removes. This is
// the optimization of "Improving Database Performance by
// Application-side Transaction Merging" (see PAPERS.md) applied on top
// of the paper's captured-memory analysis.
//
// Correctness does not depend on the footprint declarations: a merged
// batch executes its items sequentially inside one transaction, in
// admission order, so the final state and the per-item replies are
// identical to running the items in their own transactions in the same
// order. Footprints are a *policy* input — merging two writers of the
// same key would couple their conflict windows and reorder them
// relative to concurrent batches more aggressively, so the admission
// test keeps such items apart.
//
// Per-item atomicity is preserved through fallback: if any item of a
// merged batch asks to abort, the whole merged transaction rolls back
// (none of the batch's effects are published) and every item re-runs
// in its own transaction, where only the aborting item aborts. No
// request is lost and the outcome again equals unmerged execution.

// Footprint declares the application-level compatibility keys of one
// batch item: opaque words (key hashes, topic ids, …) the item reads
// and writes. Two items conflict when one writes a key the other
// touches. How coarse the keys are is the application's choice —
// coarser keys merge less and never affect correctness.
type Footprint struct {
	Reads  []uint64
	Writes []uint64
}

// BatchItem is one unit of work submitted to a Batcher.
type BatchItem struct {
	// Phase is the capture regime the item's transaction belongs to
	// (PhasePublish, PhaseCursor, or "" for the default). Items merge
	// only with items of the same kind, and the batch executes on that
	// phase's compiled barrier engine.
	Phase Phase
	// Footprint is the item's compatibility declaration.
	Footprint Footprint
	// Exclusive marks an item that never merges with anything (e.g. a
	// whole-store scan whose footprint is unbounded).
	Exclusive bool
	// Apply executes the item inside tx. reply is a zeroed
	// transaction-local scratch block of the Batcher's replyWords —
	// captured memory, so assembling the result there is elidable by
	// exactly the mechanisms the paper describes. Returning false
	// aborts the item: in a merged batch the whole transaction rolls
	// back and every item re-runs alone; in solo execution only this
	// item's transaction aborts. Apply must be retry-safe (no
	// Go-side effects that survive an abort).
	Apply func(tx *Tx, reply Struct) bool
}

// BatchReply is the outcome of one item of an executed batch.
type BatchReply struct {
	// Aborted reports that the item's Apply returned false in its own
	// (solo or fallback) transaction.
	Aborted bool
	// Words is the item's reply block, copied out at commit. Aborted
	// items read all zero. The block belongs to the caller: the batcher
	// never touches it again.
	Words []uint64
}

// BatchStats counts what a Batcher did across its lifetime.
type BatchStats struct {
	Requests  uint64 // items executed
	Batches   uint64 // Flush calls that executed at least one item
	Merged    uint64 // batches that committed as one merged transaction
	Fallbacks uint64 // merged attempts that aborted and re-ran per item
	Txns      uint64 // top-level transactions executed (committed or user-aborted)
}

// MergeRatio returns requests per transaction — 1.0 means merging
// never paid off, width W means every batch committed merged and full.
func (s BatchStats) MergeRatio() float64 {
	if s.Txns == 0 {
		return 0
	}
	return float64(s.Requests) / float64(s.Txns)
}

// Batcher queues compatible items and executes them as one merged
// transaction. It is bound to one Thread and, like the Thread, must be
// used by one goroutine at a time.
type Batcher struct {
	th         *Thread
	width      int
	replyWords int

	items  []BatchItem
	reads  map[uint64]struct{}
	writes map[uint64]struct{}

	// replies backs every BatchResult (valid until the next Flush);
	// slab is the unused rest of the allocation reply blocks are carved
	// from, replySlab blocks at a time, so a served request costs the Go
	// allocator a fraction of one object here instead of one.
	replies []BatchReply
	slab    []uint64

	stats BatchStats
}

// NewBatcher creates a batcher over th that merges up to width items
// per transaction, giving each item a replyWords-word captured reply
// block. width < 1 and replyWords < 1 are clamped to 1.
func NewBatcher(th *Thread, width, replyWords int) *Batcher {
	if width < 1 {
		width = 1
	}
	if replyWords < 1 {
		replyWords = 1
	}
	return &Batcher{
		th: th, width: width, replyWords: replyWords,
		reads:   make(map[uint64]struct{}),
		writes:  make(map[uint64]struct{}),
		replies: make([]BatchReply, width),
	}
}

// Width returns the admission width: at most this many items merge
// into one transaction.
func (b *Batcher) Width() int { return b.width }

// Len returns the number of queued items.
func (b *Batcher) Len() int { return len(b.items) }

// Stats returns the lifetime counters.
func (b *Batcher) Stats() BatchStats { return b.stats }

// Admit queues the item if it is compatible with the queued batch:
// the batch is not full, the item's phase kind matches, neither side
// is exclusive (unless the batch is empty), and the item's footprint
// keys do not conflict with the queued footprints. It returns false
// when the item cannot join — the caller should Flush and re-Admit
// (admission into an empty batch always succeeds).
func (b *Batcher) Admit(it BatchItem) bool {
	if len(b.items) >= b.width {
		return false
	}
	if len(b.items) > 0 {
		if it.Exclusive || b.items[0].Exclusive {
			return false
		}
		if it.Phase != b.items[0].Phase {
			return false
		}
		for _, k := range it.Footprint.Writes {
			if _, ok := b.reads[k]; ok {
				return false
			}
			if _, ok := b.writes[k]; ok {
				return false
			}
		}
		for _, k := range it.Footprint.Reads {
			if _, ok := b.writes[k]; ok {
				return false
			}
		}
	}
	b.items = append(b.items, it)
	for _, k := range it.Footprint.Reads {
		b.reads[k] = struct{}{}
	}
	for _, k := range it.Footprint.Writes {
		b.writes[k] = struct{}{}
	}
	return true
}

// Flush executes the queued items and empties the batch. Two or more
// items run as one merged transaction whose replies are assembled in a
// single captured stack block; if any item aborts, the merged
// transaction rolls back and every item re-runs in its own transaction
// (per-request fallback). A single queued item runs solo. Flush on an
// empty batch is a no-op returning an empty result.
//
// On a durable runtime Flush returns at commit, before the batch's redo
// records are durable: the replies must not leave the process until
// BatchResult.Wait returns or Durable reports true. Results of
// successive Flush calls become durable in the order they were
// returned. Without durability the result is durable on return.
func (b *Batcher) Flush() BatchResult {
	n := len(b.items)
	if n == 0 {
		return BatchResult{}
	}
	res := BatchResult{Replies: b.replies[:n]} // Admit keeps n ≤ width
	for i := range res.Replies {
		res.Replies[i] = BatchReply{Words: b.carveReply()}
	}
	b.stats.Requests += uint64(n)
	b.stats.Batches++
	// The whole batch shares one phase kind (Admit enforced it), so
	// the merged transaction — and each fallback transaction — runs on
	// that regime's compiled engine. The hint is free when the runtime
	// declares no phases.
	b.th.EnterPhase(b.items[0].Phase)

	res.ack = b.th.th.Deferred(func() {
		if n > 1 && b.runMerged(res.Replies) {
			res.Merged = true
			b.stats.Merged++
			b.stats.Txns++
			return
		}
		if n > 1 {
			// The aborted merged attempt was a top-level transaction too
			// (it user-aborted); Txns must count it or MergeRatio
			// overstates what merging achieved on fallback-heavy runs.
			b.stats.Fallbacks++
			b.stats.Txns++
		}
		for i := range b.items {
			b.runSolo(&b.items[i], &res.Replies[i])
			b.stats.Txns++
		}
	})

	b.items = b.items[:0]
	clear(b.reads)
	clear(b.writes)
	return res
}

// BatchResult is the outcome of one Flush.
type BatchResult struct {
	// Merged reports that the items committed as one transaction.
	Merged bool
	// Replies holds one reply per item, in admission order. The slice
	// is reused by the batcher's next Flush; the replies' Words are not.
	Replies []BatchReply

	ack wal.Ack // covers every transaction the Flush ran
}

// Wait blocks until the batch's commits are durable and returns the
// redo log's sticky error, if any. It returns nil at once on a
// runtime without durability.
func (r BatchResult) Wait() error { return r.ack.Wait() }

// Durable reports, without blocking, whether Wait would return at once:
// the batch's commits — and every commit its transactions read — are
// durable, so its replies may be revealed.
func (r BatchResult) Durable() bool { return r.ack.Done() }

// replySlab is how many reply blocks one allocation supplies.
const replySlab = 64

// carveReply returns a zeroed reply block the batcher keeps no
// reference to.
func (b *Batcher) carveReply() []uint64 {
	if len(b.slab) < b.replyWords {
		b.slab = make([]uint64, replySlab*b.replyWords)
	}
	w := b.slab[:b.replyWords:b.replyWords]
	b.slab = b.slab[b.replyWords:]
	return w
}

// runMerged attempts the batch as one transaction, copying each item's
// reply into replies[i].Words at the end. It returns false when an item
// asked to abort (the transaction rolled back; nothing was published).
func (b *Batcher) runMerged(replies []BatchReply) bool {
	n := len(b.items)
	return b.th.Atomic(func(tx *Tx) {
		// One captured block carries every item's reply: the stores
		// that assemble results and the loads that copy them out are
		// all transaction-local, so the capture machinery elides them.
		buf := tx.StackAlloc(n * b.replyWords)
		for i := range b.items {
			if !b.items[i].Apply(tx, buf.Slice(i*b.replyWords, b.replyWords)) {
				tx.Abort() // unwinds; Atomic returns false
			}
		}
		for i := range b.items {
			for j := range replies[i].Words {
				replies[i].Words[j] = buf.Word(i*b.replyWords + j).Load(tx)
			}
		}
	})
}

// runSolo executes one item in its own transaction — the unmerged
// path, also used as the per-request fallback after a merged abort —
// and fills in its reply.
func (b *Batcher) runSolo(it *BatchItem, r *BatchReply) {
	committed := b.th.Atomic(func(tx *Tx) {
		reply := tx.StackAlloc(b.replyWords)
		if !it.Apply(tx, reply) {
			tx.Abort()
		}
		for j := range r.Words {
			r.Words[j] = reply.Word(j).Load(tx)
		}
	})
	if !committed {
		// A merged attempt that copied its replies out and then lost
		// its commit to a conflict may have written the block already.
		r.Aborted = true
		clear(r.Words)
	}
}
