package stm

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/mem"
	"repro/internal/wal"
)

// openDurableRT builds a small durable runtime whose log lands in a
// temp directory; the caller drives transactions, kills the log, and
// inspects the emitted records with readLog.
func openDurableRT(t *testing.T, cfg OptConfig) (*Runtime, *wal.Log, string) {
	t.Helper()
	dir := t.TempDir()
	log, err := wal.OpenLog(dir, 0, 0, wal.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(mem.Config{GlobalWords: 256, HeapWords: 1 << 16, StackWords: 256, MaxThreads: 4}, cfg)
	rt.SetDurable(log)
	return rt, log, dir
}

// readLog kills the log and decodes every record from the segment files
// in order, up to the zero-filled rest of the last one's reservation.
func readLog(t *testing.T, log *wal.Log, dir string) []wal.Record {
	t.Helper()
	log.Kill()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var recs []wal.Record
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		b = b[16:] // segment header
		for len(b) > 0 {
			var rec wal.Record
			n, err := wal.DecodeRecord(b, &rec)
			if err != nil && bytes.Count(b, []byte{0}) == len(b) {
				break
			}
			if err != nil {
				t.Fatalf("decoding %s: %v", seg, err)
			}
			recs = append(recs, rec)
			b = b[n:]
		}
	}
	return recs
}

// spanValue returns the logged value for addr in rec, reporting whether
// any span covers it.
func spanValue(rec *wal.Record, addr uint64) (uint64, bool) {
	for _, sp := range rec.Spans {
		if addr >= sp.Addr && addr < sp.Addr+uint64(len(sp.Vals)) {
			return sp.Vals[addr-sp.Addr], true
		}
	}
	return 0, false
}

func TestDurableCommitRecord(t *testing.T) {
	rt, log, dir := openDurableRT(t, OptConfig{Name: "t"})
	a := rt.Space().AllocGlobal(1)
	th := rt.Thread(0)
	th.Atomic(func(tx *Tx) { tx.Store(a, 42, AccShared) })
	recs := readLog(t, log, dir)
	if len(recs) != 1 || recs[0].Kind != wal.KindCommit {
		t.Fatalf("records = %+v, want one commit", recs)
	}
	if v, ok := spanValue(&recs[0], uint64(a)); !ok || v != 42 {
		t.Fatalf("commit record value at %d = %d,%v, want 42", a, v, ok)
	}
	if recs[0].Version == 0 {
		t.Fatal("commit record carries no version")
	}
}

func TestDurableUserAbortRecord(t *testing.T) {
	rt, log, dir := openDurableRT(t, OptConfig{Name: "t"})
	a := rt.Space().AllocGlobal(1)
	rt.Space().Store(a, 7)
	th := rt.Thread(0)
	if th.Atomic(func(tx *Tx) {
		tx.Store(a, 99, AccShared)
		tx.UserAbort()
	}) {
		t.Fatal("user abort reported as commit")
	}
	recs := readLog(t, log, dir)
	if len(recs) != 1 || recs[0].Kind != wal.KindAbort {
		t.Fatalf("records = %+v, want one abort", recs)
	}
	if v, ok := spanValue(&recs[0], uint64(a)); !ok || v != 7 {
		t.Fatalf("abort record value at %d = %d,%v, want restored 7", a, v, ok)
	}
}

// TestDurableNestedAbortRecord: a nested partial abort must emit its
// replayed undo range as its own record before the scope's orecs are
// released — otherwise a foreign commit could take a log position
// between the release and the top-level record and be overwritten at
// replay.
func TestDurableNestedAbortRecord(t *testing.T) {
	rt, log, dir := openDurableRT(t, OptConfig{Name: "t"})
	a := rt.Space().AllocGlobal(2)
	b := a + 1
	rt.Space().Store(b, 5)
	th := rt.Thread(0)
	th.Atomic(func(tx *Tx) {
		tx.Store(a, 1, AccShared)
		th.Atomic(func(ntx *Tx) {
			ntx.Store(b, 6, AccShared)
			ntx.UserAbort()
		})
	})
	recs := readLog(t, log, dir)
	if len(recs) != 2 {
		t.Fatalf("records = %+v, want nested abort then commit", recs)
	}
	if recs[0].Kind != wal.KindAbort || recs[1].Kind != wal.KindCommit {
		t.Fatalf("record kinds = %v, %v, want abort then commit", recs[0].Kind, recs[1].Kind)
	}
	if recs[0].Seq >= recs[1].Seq {
		t.Fatalf("nested abort seq %d not before commit seq %d", recs[0].Seq, recs[1].Seq)
	}
	if v, ok := spanValue(&recs[0], uint64(b)); !ok || v != 5 {
		t.Fatalf("nested abort value at %d = %d,%v, want restored 5", b, v, ok)
	}
	if v, ok := spanValue(&recs[1], uint64(a)); !ok || v != 1 {
		t.Fatalf("commit value at %d = %d,%v, want 1", a, v, ok)
	}
}

// TestDurableCapturedOnlyCommit: a transaction whose only effects are
// captured (a fresh allocation, no shared stores) acquires no orecs but
// still changes checksum-visible memory, so it must emit a commit
// record covering the allocation block.
func TestDurableCapturedOnlyCommit(t *testing.T) {
	rt, log, dir := openDurableRT(t, OptConfig{Name: "t"})
	th := rt.Thread(0)
	var p mem.Addr
	th.Atomic(func(tx *Tx) {
		p = tx.Alloc(4)
		tx.Store(p, 11, AccFresh)
	})
	recs := readLog(t, log, dir)
	if len(recs) != 1 || recs[0].Kind != wal.KindCommit {
		t.Fatalf("records = %+v, want one commit", recs)
	}
	if v, ok := spanValue(&recs[0], uint64(p)); !ok || v != 11 {
		t.Fatalf("captured store at %d = %d,%v, want 11", p, v, ok)
	}
	if _, ok := spanValue(&recs[0], uint64(p-1)); !ok {
		t.Fatalf("allocation header %d not covered by commit record", p-1)
	}
}

// TestDurableReadOnlyNoRecord: a read-only transaction changes nothing
// and must stay record-free (pay-as-you-go within the durable tier).
func TestDurableReadOnlyNoRecord(t *testing.T) {
	rt, log, dir := openDurableRT(t, OptConfig{Name: "t"})
	a := rt.Space().AllocGlobal(1)
	th := rt.Thread(0)
	th.Atomic(func(tx *Tx) { _ = tx.Load(a, AccShared) })
	if recs := readLog(t, log, dir); len(recs) != 0 {
		t.Fatalf("read-only transaction emitted records: %+v", recs)
	}
}

// TestDurableNonTxJournal: the journaled non-transactional operations
// each emit an eager KindNonTx record with the space's current content.
func TestDurableNonTxJournal(t *testing.T) {
	rt, log, dir := openDurableRT(t, OptConfig{Name: "t"})
	a := rt.Space().AllocGlobal(1)
	th := rt.Thread(0)
	th.Store(a, 13)
	p := th.Alloc(3)
	frame, mark := th.StackPush(2)
	th.StackPop(mark)
	th.Free(p)
	recs := readLog(t, log, dir)
	if len(recs) != 3 {
		t.Fatalf("records = %+v, want store, alloc, and push journals", recs)
	}
	for i, rec := range recs {
		if rec.Kind != wal.KindNonTx {
			t.Fatalf("record %d kind = %v, want nontx", i, rec.Kind)
		}
	}
	if v, ok := spanValue(&recs[0], uint64(a)); !ok || v != 13 {
		t.Fatalf("store journal at %d = %d,%v, want 13", a, v, ok)
	}
	if _, ok := spanValue(&recs[1], uint64(p-1)); !ok {
		t.Fatalf("alloc journal does not cover header %d", p-1)
	}
	if _, ok := spanValue(&recs[2], uint64(frame)); !ok {
		t.Fatalf("stack journal does not cover frame %d", frame)
	}
}

// TestNonDurableEmitsNothing: without SetDurable the same operations
// write no log anywhere (the option-off commit path is unchanged).
func TestNonDurableEmitsNothing(t *testing.T) {
	rt := New(mem.Config{GlobalWords: 256, HeapWords: 1 << 16, StackWords: 256, MaxThreads: 4}, OptConfig{Name: "t"})
	a := rt.Space().AllocGlobal(1)
	th := rt.Thread(0)
	th.Store(a, 1)
	th.Atomic(func(tx *Tx) { tx.Store(a, 2, AccShared) })
	if rt.Durable() != nil {
		t.Fatal("runtime reports durable without SetDurable")
	}
}
