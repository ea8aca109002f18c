package tm_test

// Black-box tests of the Batcher: admission policy, merged execution,
// per-request fallback after a merged abort, and the statistics the
// merge ratio is computed from.

import (
	"testing"

	"repro/tm"
)

// incItem returns a batch item that adds delta to counter cell i and
// reports the post-increment value in reply word 0.
func incItem(g tm.Struct, i int, delta uint64) tm.BatchItem {
	return tm.BatchItem{
		Footprint: tm.Footprint{Writes: []uint64{uint64(i)}},
		Apply: func(tx *tm.Tx, reply tm.Struct) bool {
			reply.Word(0).Store(tx, g.Word(i).Add(tx, delta))
			return true
		},
	}
}

func TestBatcherAdmission(t *testing.T) {
	rt := tm.Open(smallMem())
	b := tm.NewBatcher(rt.Thread(0), 3, 1)
	g := rt.AllocGlobal(8)

	if !b.Admit(incItem(g, 0, 1)) {
		t.Fatal("empty batch refused an item")
	}
	// Write-write conflict on key 0.
	if b.Admit(incItem(g, 0, 1)) {
		t.Error("admitted write-write conflict")
	}
	// Read of a queued write.
	if b.Admit(tm.BatchItem{
		Footprint: tm.Footprint{Reads: []uint64{0}},
		Apply:     func(tx *tm.Tx, reply tm.Struct) bool { return true },
	}) {
		t.Error("admitted read of a queued write")
	}
	// Write of a queued read: queue a reader of key 5 first.
	if !b.Admit(tm.BatchItem{
		Footprint: tm.Footprint{Reads: []uint64{5}},
		Apply:     func(tx *tm.Tx, reply tm.Struct) bool { return true },
	}) {
		t.Fatal("refused a compatible reader")
	}
	if b.Admit(incItem(g, 5, 1)) {
		t.Error("admitted write of a queued read")
	}
	// Readers never conflict with readers.
	if !b.Admit(tm.BatchItem{
		Footprint: tm.Footprint{Reads: []uint64{5}},
		Apply:     func(tx *tm.Tx, reply tm.Struct) bool { return true },
	}) {
		t.Error("refused read-read overlap")
	}
	// Batch is now full (width 3).
	if b.Admit(incItem(g, 7, 1)) {
		t.Error("admitted past width")
	}
	b.Flush()

	// Phase mismatch.
	pub := incItem(g, 1, 1)
	pub.Phase = tm.PhasePublish
	cur := incItem(g, 2, 1)
	cur.Phase = tm.PhaseCursor
	if !b.Admit(pub) {
		t.Fatal("refused first phased item")
	}
	if b.Admit(cur) {
		t.Error("admitted mixed phase kinds")
	}
	b.Flush()

	// Exclusive items merge with nothing, in either order.
	excl := incItem(g, 3, 1)
	excl.Exclusive = true
	if !b.Admit(excl) {
		t.Fatal("refused exclusive into empty batch")
	}
	if b.Admit(incItem(g, 4, 1)) {
		t.Error("admitted item after exclusive")
	}
	b.Flush()
	if !b.Admit(incItem(g, 4, 1)) {
		t.Fatal("refused plain item into empty batch")
	}
	if b.Admit(excl) {
		t.Error("admitted exclusive into non-empty batch")
	}
	b.Flush()
	rt.Validate()
}

func TestBatcherMergedFlush(t *testing.T) {
	rt := tm.Open(smallMem())
	b := tm.NewBatcher(rt.Thread(0), 4, 2)
	g := rt.AllocGlobal(4)

	for i := 0; i < 4; i++ {
		it := incItem(g, i, uint64(10*(i+1)))
		base := it.Apply
		it.Apply = func(tx *tm.Tx, reply tm.Struct) bool {
			ok := base(tx, reply)
			reply.Word(1).Store(tx, 7) // second reply word
			return ok
		}
		if !b.Admit(it) {
			t.Fatalf("item %d refused", i)
		}
	}
	res := b.Flush()
	if !res.Merged {
		t.Fatal("4 compatible items did not merge")
	}
	for i, r := range res.Replies {
		if r.Aborted {
			t.Errorf("reply %d aborted", i)
		}
		want := uint64(10 * (i + 1))
		if r.Words[0] != want || r.Words[1] != 7 {
			t.Errorf("reply %d = %v, want [%d 7]", i, r.Words, want)
		}
		if v := g.Word(i).Peek(rt); v != want {
			t.Errorf("cell %d = %d, want %d", i, v, want)
		}
	}
	s := b.Stats()
	if s.Requests != 4 || s.Batches != 1 || s.Merged != 1 || s.Fallbacks != 0 || s.Txns != 1 {
		t.Errorf("stats = %+v", s)
	}
	if r := s.MergeRatio(); r != 4 {
		t.Errorf("merge ratio = %v, want 4", r)
	}
	if b.Len() != 0 {
		t.Errorf("batch not emptied: %d", b.Len())
	}
	rt.Validate()
}

func TestBatcherFallbackOnAbort(t *testing.T) {
	rt := tm.Open(smallMem())
	b := tm.NewBatcher(rt.Thread(0), 3, 1)
	g := rt.AllocGlobal(4)

	b.Admit(incItem(g, 0, 1))
	b.Admit(tm.BatchItem{
		Footprint: tm.Footprint{Writes: []uint64{1}},
		Apply: func(tx *tm.Tx, reply tm.Struct) bool {
			g.Word(1).Add(tx, 1) // must be rolled back
			return false
		},
	})
	b.Admit(incItem(g, 2, 1))

	res := b.Flush()
	if res.Merged {
		t.Fatal("batch with an aborting item reported merged")
	}
	if res.Replies[0].Aborted || res.Replies[2].Aborted {
		t.Error("non-aborting items flagged aborted")
	}
	if !res.Replies[1].Aborted {
		t.Error("aborting item not flagged")
	}
	if res.Replies[0].Words[0] != 1 || res.Replies[2].Words[0] != 1 {
		t.Errorf("fallback replies = %v, %v, want [1], [1]",
			res.Replies[0].Words, res.Replies[2].Words)
	}
	if res.Replies[1].Words[0] != 0 {
		t.Errorf("aborted reply = %v, want zeros", res.Replies[1].Words)
	}
	if v := g.Word(0).Peek(rt); v != 1 {
		t.Errorf("cell 0 = %d, want 1", v)
	}
	if v := g.Word(1).Peek(rt); v != 0 {
		t.Errorf("aborted item's effect visible: cell 1 = %d", v)
	}
	if v := g.Word(2).Peek(rt); v != 1 {
		t.Errorf("cell 2 = %d, want 1", v)
	}
	s := b.Stats()
	// Txns counts the aborted merged attempt too: 1 merged attempt + 3
	// per-item fallback transactions.
	if s.Requests != 3 || s.Batches != 1 || s.Merged != 0 || s.Fallbacks != 1 || s.Txns != 4 {
		t.Errorf("stats = %+v", s)
	}
	if r := s.MergeRatio(); r != 0.75 {
		t.Errorf("merge ratio = %v, want 0.75 (fallback costs the attempt)", r)
	}
	rt.Validate()
}

func TestBatcherSoloAndEmpty(t *testing.T) {
	rt := tm.Open(smallMem())
	b := tm.NewBatcher(rt.Thread(0), 1, 1)
	g := rt.AllocGlobal(1)

	if res := b.Flush(); res.Merged || len(res.Replies) != 0 {
		t.Errorf("empty flush = %+v", res)
	}
	b.Admit(incItem(g, 0, 5))
	res := b.Flush()
	if res.Merged {
		t.Error("single item reported merged")
	}
	if res.Replies[0].Words[0] != 5 {
		t.Errorf("solo reply = %v, want [5]", res.Replies[0].Words)
	}
	s := b.Stats()
	if s.Requests != 1 || s.Txns != 1 || s.Merged != 0 || s.Fallbacks != 0 {
		t.Errorf("stats = %+v", s)
	}
	rt.Validate()
}

// TestBatcherReplyAssemblyElides: under runtime capture analysis, the
// stores assembling replies in the merged batch's stack block are
// elided — the mechanism the merging optimization leans on.
func TestBatcherReplyAssemblyElides(t *testing.T) {
	rt := tm.Open(append(tm.RuntimeAll(tm.LogTree).Options(), smallMem())...)
	b := tm.NewBatcher(rt.Thread(0), 4, 1)
	g := rt.AllocGlobal(4)
	for i := 0; i < 4; i++ {
		b.Admit(incItem(g, i, 1))
	}
	if res := b.Flush(); !res.Merged {
		t.Fatal("batch did not merge")
	}
	s := rt.Snapshot().Stats
	if s.WriteElStack != 4 {
		t.Errorf("stack write elisions = %d, want 4 (one reply store per item)", s.WriteElStack)
	}
	if s.ReadElStack != 4 {
		t.Errorf("stack read elisions = %d, want 4 (the reply copy-out)", s.ReadElStack)
	}
	rt.Validate()
}
