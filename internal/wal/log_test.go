package wal

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// forModes runs f once with fsync and once under NoFsync, as subtests.
func forModes(t *testing.T, f func(t *testing.T, noFsync bool)) {
	for _, noFsync := range []bool{false, true} {
		name := "fsync"
		if noFsync {
			name = "nofsync"
		}
		t.Run(name, func(t *testing.T) { f(t, noFsync) })
	}
}

// openLog is OpenLog with a test seam.
func openLog(t *testing.T, dir string, opts Options, sm seam) *Log {
	t.Helper()
	l, err := newLog(dir, 0, 0, opts, sm)
	if err != nil {
		t.Fatal(err)
	}
	l.startFlusher()
	return l
}

// readSegment decodes segment idx of dir: its records, the offset where
// they end, and the file's bytes.
func readSegment(t *testing.T, dir string, idx uint64) (recs []Record, end int, b []byte) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, SegName(idx)))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < segHdrLen || string(b[:8]) != segMagic {
		t.Fatalf("segment %d: bad header", idx)
	}
	end = segHdrLen
	for end < len(b) {
		var rec Record
		n, err := DecodeRecord(b[end:], &rec)
		if err != nil {
			break
		}
		recs = append(recs, rec)
		end += n
	}
	return recs, end, b
}

// commitRecord is a commit of n one-word spans derived from seed.
func commitRecord(seed uint64, n int) *Record {
	rec := &Record{Kind: KindCommit, Version: seed}
	for i := 0; i < n; i++ {
		rec.Spans = append(rec.Spans, Span{Addr: seed*31 + uint64(i), Vals: []uint64{seed<<16 | uint64(i)}})
	}
	return rec
}

func TestLogAppendSyncReadBack(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{}, seam{})
	recs := sampleRecords()
	var lastAck Ack
	for i := range recs {
		ack, err := l.Append(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		lastAck = ack
	}
	if err := lastAck.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Records != uint64(len(recs)) || st.Batches == 0 || st.Fsyncs == 0 {
		t.Fatalf("stats %+v: want %d records, batches and fsyncs", st, len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&recs[0]); err == nil {
		t.Fatal("append after close succeeded")
	}
	got, end, b := readSegment(t, dir, 0)
	if len(got) != len(recs) || end != len(b) {
		t.Fatalf("read back %d of %d records, ending at %d of %d bytes", len(got), len(recs), end, len(b))
	}
	for i := range got {
		if got[i].Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, got[i].Seq)
		}
	}
}

func TestLogRotationAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{NoFsync: true}, seam{segBytes: 256})
	rec := Record{Kind: KindCommit, Spans: []Span{{Addr: 1, Vals: make([]uint64, 16)}}}
	for i := 0; i < 20; i++ {
		if _, err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	seg, off := l.Position()
	if seg == 0 {
		t.Fatalf("expected rotation, still on segment 0 (off %d)", off)
	}
	if err := l.TruncateBefore(seg); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < seg; i++ {
		if _, err := os.Stat(filepath.Join(dir, SegName(i))); !os.IsNotExist(err) {
			t.Fatalf("segment %d survived TruncateBefore(%d)", i, seg)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, SegName(seg))); err != nil {
		t.Fatalf("tail segment missing: %v", err)
	}
}

// TestNoFsyncAckDoneAtAppend pins the NoFsync contract: Append returns
// the zero Ack, already done, the tail ack is zero, and the record's
// bytes can be read from the segment file when Append returns.
func TestNoFsyncAckDoneAtAppend(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, Options{NoFsync: true}, seam{segBytes: 4 << 10})
	defer l.Close()
	recs := sampleRecords()
	for i := 0; i < 60; i++ {
		rec := &recs[i%len(recs)]
		ack, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if ack != (Ack{}) || !ack.Done() || l.TailAck() != (Ack{}) {
			t.Fatalf("append %d: ack not done at return", i)
		}
		want := AppendRecord(nil, rec)
		seg, end := l.Position()
		b, err := os.ReadFile(filepath.Join(dir, SegName(seg)))
		if err != nil {
			t.Fatal(err)
		}
		if got := b[int(end)-len(want) : end]; !bytes.Equal(got, want) {
			t.Fatalf("append %d: segment %d does not hold the record's bytes", i, seg)
		}
	}
	if seg, _ := l.Position(); seg == 0 {
		t.Fatal("no rotation: the test exercised one segment")
	}
	if st := l.Stats(); st.Batches != 0 || st.Fsyncs != 0 {
		t.Fatalf("stats %+v: NoFsync ran fsync batches", st)
	}
}

// TestKillLeavesReservedTail appends across many rotations (one record
// larger than a segment among them) and kills the log: every segment
// but the last was trimmed to its records before the next one got its
// name, the last keeps its reserved, zero-filled length, and recovery
// replays every record and trims the zeros.
func TestKillLeavesReservedTail(t *testing.T) {
	const segBytes, spaceWords = 4 << 10, 1 << 16
	dir := t.TempDir()
	store, err := openStore(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, spaceWords)
	if _, err := store.WriteCheckpoint(Snapshot{Geometry: Geometry{GlobalWords: 1, HeapWords: 1, StackWords: 1, MaxThreads: 1}}, wordSlice(words)); err != nil {
		t.Fatal(err)
	}
	var l *Log
	named := 0
	fault := func(name string) error {
		var idx uint64
		if !matchName(name, "seg-%08d.wal", &idx) || idx == 0 {
			return nil
		}
		// Rotation runs the hook under l.mu, the finished tail last.
		prev := l.segs[len(l.segs)-1]
		fi, err := os.Stat(filepath.Join(dir, SegName(idx-1)))
		if err != nil || prev.idx != idx-1 || fi.Size() != int64(prev.used) {
			t.Errorf("%s: segment %d not trimmed to %d bytes (stat %v, %v)", name, idx-1, prev.used, fi, err)
		}
		named++
		return nil
	}
	l = openLog(t, dir, Options{NoFsync: true}, seam{segBytes: segBytes, fault: fault})
	const records = 300
	for seed := uint64(1); seed <= records; seed++ {
		n := 1 + int(seed%13)
		if seed == 150 {
			n = 600 // ≈ 12 KB: a segment of its own
		}
		rec := commitRecord(seed, n)
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		for _, s := range rec.Spans {
			words[s.Addr] = s.Vals[0]
		}
	}
	last, _ := l.Position()
	l.Kill()

	if named != int(last) || last < 8 {
		t.Fatalf("%d segments named by rotation, tail is segment %d", named, last)
	}
	total := 0
	for idx := uint64(0); idx <= last; idx++ {
		recs, end, b := readSegment(t, dir, idx)
		total += len(recs)
		switch {
		case idx < last && end != len(b):
			t.Errorf("segment %d: %d bytes, its records end at %d", idx, len(b), end)
		case idx == last && (len(b) != segBytes || !allZero(b[end:])):
			t.Errorf("killed tail: %d bytes (want the %d reserved), zero past its records: %v", len(b), segBytes, allZero(b[end:]))
		}
	}
	if total != records {
		t.Fatalf("%d records on disk, %d appended", total, records)
	}

	st, got, err := recoverImage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != records || st.Truncated || !reflect.DeepEqual(got, words) {
		t.Fatalf("recovery replayed %d of %d records, truncated=%v, image equal=%v", st.Records, records, st.Truncated, reflect.DeepEqual(got, words))
	}
	if _, end, b := readSegment(t, dir, last); end != len(b) {
		t.Fatalf("recovery left %d bytes past the last record", len(b)-end)
	}
}

var errInjected = errors.New("injected fault")

// TestSegmentFaultsAreErrors injects failures into segment creation and
// writes: at open it is OpenLog's error; at a rotation, or in a write to
// the tail, it is the sticky error of that Append and of every later
// Append, Sync and Close.
func TestSegmentFaultsAreErrors(t *testing.T) {
	t.Run("open", func(t *testing.T) {
		dir := t.TempDir()
		fault := func(string) error { return errInjected }
		if _, err := newLog(dir, 0, 0, Options{}, seam{fault: fault}); !errors.Is(err, errInjected) {
			t.Fatalf("newLog: got %v, want the injected fault", err)
		}
		if _, err := os.Stat(filepath.Join(dir, SegName(0))); !os.IsNotExist(err) {
			t.Fatalf("failed open left its segment behind (stat: %v)", err)
		}
	})
	forModes(t, func(t *testing.T, noFsync bool) {
		dir := t.TempDir()
		fault := func(name string) error {
			if name == SegName(3) {
				return errInjected
			}
			return nil
		}
		l := openLog(t, dir, Options{NoFsync: noFsync}, seam{segBytes: 1 << 10, fault: fault})
		appended := 0
		var err error
		for ; appended < 100; appended++ {
			if _, err = l.Append(commitRecord(uint64(appended), 4)); err != nil {
				break
			}
		}
		if seg, _ := l.Position(); !errors.Is(err, errInjected) || seg != 2 {
			t.Fatalf("append %d on segment %d: got %v, want the injected fault leaving segment 2", appended, seg, err)
		}
		if _, err := l.Append(commitRecord(0, 1)); !errors.Is(err, errInjected) {
			t.Errorf("append after the fault: %v", err)
		}
		if err := l.Sync(); !errors.Is(err, errInjected) {
			t.Errorf("sync after the fault: %v", err)
		}
		for i := 0; i < 2; i++ {
			if err := l.Close(); !errors.Is(err, errInjected) {
				t.Errorf("close %d after the fault: %v", i, err)
			}
		}
		total := 0
		for idx := uint64(0); idx <= 2; idx++ {
			recs, end, b := readSegment(t, dir, idx)
			if end != len(b) {
				t.Errorf("segment %d not trimmed: %d bytes, records end at %d", idx, len(b), end)
			}
			total += len(recs)
		}
		if total != appended {
			t.Errorf("%d records on disk, %d appended before the fault", total, appended)
		}
	})
	t.Run("write", func(t *testing.T) {
		l := openLog(t, t.TempDir(), Options{NoFsync: true}, seam{})
		if _, err := l.Append(commitRecord(1, 4)); err != nil {
			t.Fatal(err)
		}
		// A write that fails, as on a full disk, fails that Append.
		l.mu.Lock()
		l.segs[0].f.Close()
		l.mu.Unlock()
		_, werr := l.Append(commitRecord(2, 4))
		if werr == nil {
			t.Fatal("append to a closed segment file succeeded")
		}
		if _, err := l.Append(commitRecord(3, 4)); err != werr {
			t.Errorf("append after the failed write: %v, want %v", err, werr)
		}
		if err := l.Sync(); err != werr {
			t.Errorf("sync after the failed write: %v, want %v", err, werr)
		}
		if err := l.Close(); err != werr {
			t.Errorf("close after the failed write: %v, want %v", err, werr)
		}
	})
}

// TestTailAck drives fsync batches by hand: the tail ack is the
// pending batch's, it is not done until that batch is synced, and it
// is zero once everything appended is. Under NoFsync it is always zero.
func TestTailAck(t *testing.T) {
	forModes(t, func(t *testing.T, noFsync bool) {
		l, err := newLog(t.TempDir(), 0, 0, Options{NoFsync: noFsync}, seam{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			l.startFlusher() // Close stops it
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		rec := Record{Kind: KindCommit, Spans: []Span{{Addr: 1, Vals: []uint64{2}}}}
		ack1, err := l.Append(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if noFsync {
			if ack1 != (Ack{}) || l.TailAck() != (Ack{}) {
				t.Fatal("NoFsync append or tail ack is not the zero Ack")
			}
			return
		}
		tail := l.TailAck()
		if tail.Done() || tail.ch != ack1.ch {
			t.Fatal("tail ack is not the pending batch's")
		}
		ack2, _ := l.Append(&rec)
		if l.TailAck().ch != ack2.ch || ack2.ch != ack1.ch {
			t.Fatal("records appended before one flush got different acks")
		}
		if tail.Done() {
			t.Fatal("tail ack done before any flush")
		}
		l.flushOnce()
		if !tail.Done() || !ack2.Done() {
			t.Fatal("flush left the tail ack pending")
		}
		if got := l.TailAck(); got != (Ack{}) || !got.Done() {
			t.Fatal("tail ack is not zero with everything synced")
		}
		ack3, _ := l.Append(&rec)
		if tail3 := l.TailAck(); tail3.Done() || tail3.ch != ack3.ch {
			t.Fatal("tail ack after a new append is not the next batch's")
		}
		l.flushOnce()
		if !ack3.Done() {
			t.Fatal("second flush left its ack pending")
		}
	})
}

// TestTailAckCoversAppended races appends against the real flusher:
// whenever a tail ack reports done, every change to the segment made
// before it was taken is synced, and no tail ack stays pending forever.
// At seeded appends it also holds the flusher through seam.hold once it
// has taken the batch covering that append, and takes the tail ack
// inside that window, where the only unsynced change is the held
// batch's: the ack must be that batch's, not done. So the window is
// tested on every run, however fast the disk syncs. Under NoFsync there
// is no flusher and every tail ack is done when taken.
func TestTailAckCoversAppended(t *testing.T) {
	forModes(t, func(t *testing.T, noFsync bool) {
		var l *Log
		var holdFor atomic.Uint64 // hold the batch syncing this many changes; 0: none
		held, release, quit := make(chan struct{}), make(chan struct{}), make(chan struct{})
		hold := func() {
			want := holdFor.Load()
			if want == 0 {
				return
			}
			l.mu.Lock()
			covers := l.segs[0].syncing >= want
			l.mu.Unlock()
			if !covers {
				return // a batch taken before the append it waits for
			}
			holdFor.Store(0)
			select {
			case held <- struct{}{}:
				select {
				case <-release:
				case <-quit:
				}
			case <-quit:
			}
		}
		l = openLog(t, t.TempDir(), Options{NoFsync: noFsync}, seam{hold: hold})
		defer l.Close()
		defer close(quit) // before Close, which waits for a held flusher
		rng := rand.New(rand.NewPCG(39, 1))
		rec := Record{Kind: KindCommit, Spans: []Span{{Addr: 1, Vals: make([]uint64, 8)}}}
		const iters = 2000
		pending, holds := 0, 0
		for i := 0; i < iters; i++ {
			holding := false
			if i%3 != 2 { // every third tail ack is taken with nothing new appended
				if holding = !noFsync && rng.IntN(8) == 0; holding {
					l.mu.Lock()
					holdFor.Store(l.segs[0].changes + 1)
					l.mu.Unlock()
				}
				if _, err := l.Append(&rec); err != nil {
					t.Fatal(err)
				}
				if holding {
					select {
					case <-held:
					case <-time.After(5 * time.Second):
						t.Fatalf("append %d: the flusher never took its batch", i)
					}
				}
			}
			l.mu.Lock()
			changes := l.segs[0].changes
			l.mu.Unlock()
			tail := l.TailAck()
			if holding {
				holds++
				if tail.Done() {
					t.Fatalf("append %d: tail ack taken while its batch is being synced is done", i)
				}
				release <- struct{}{}
			}
			if !tail.Done() {
				pending++
			}
			deadline := time.Now().Add(5 * time.Second)
			for !tail.Done() {
				if time.Now().After(deadline) {
					t.Fatalf("append %d: tail ack never completed", i)
				}
				runtime.Gosched()
			}
			if noFsync {
				continue
			}
			l.mu.Lock()
			synced := l.segs[0].synced
			l.mu.Unlock()
			if synced < changes {
				t.Fatalf("append %d: tail ack done with %d of %d changes synced", i, synced, changes)
			}
		}
		if noFsync != (pending == 0) || noFsync != (holds == 0) {
			t.Fatalf("%d of %d tail acks pending when taken, %d with the flusher held", pending, iters, holds)
		}
		t.Logf("%d of %d tail acks pending when taken, %d with the flusher held", pending, iters, holds)
	})
}

// TestTailAckWhileWriting takes the tail ack while the flusher is held
// in the middle of a batch. The batch being synced holds the only
// record, so the tail ack must be that batch's — not zero, and not the
// next batch's, which nothing would sync.
func TestTailAckWhileWriting(t *testing.T) {
	var l *Log
	taken, release := make(chan struct{}), make(chan struct{})
	hold := func() {
		l.mu.Lock()
		covers := l.segs[0].syncing >= 2 // the header and the record
		l.mu.Unlock()
		select {
		case <-taken:
		default:
			if covers {
				close(taken)
				<-release
			}
		}
	}
	l = openLog(t, t.TempDir(), Options{}, seam{hold: hold})
	defer l.Close()
	var released sync.Once
	unhold := func() { released.Do(func() { close(release) }) }
	defer unhold() // before Close, which waits for the held flusher
	ack, err := l.Append(&Record{Kind: KindCommit, Spans: []Span{{Addr: 1, Vals: []uint64{2}}}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-taken:
	case <-time.After(5 * time.Second):
		t.Fatal("the flusher never took the batch")
	}
	tail := l.TailAck()
	if tail.Done() || tail.ch != ack.ch {
		t.Fatal("tail ack taken during a sync is not that sync's")
	}
	unhold()
	if err := tail.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := l.TailAck(); got != (Ack{}) {
		t.Fatal("tail ack is not zero after the sync")
	}
}

// TestLogStress runs appenders of mixed record sizes (some larger than
// a segment) over 4 KiB segments against a checkpointer's loop of
// Sync, Position and TruncateBefore, then checks that the segments
// left hold the last records appended, contiguous and in order. Run it
// under -race.
func TestLogStress(t *testing.T) {
	forModes(t, func(t *testing.T, noFsync bool) {
		dir := t.TempDir()
		l := openLog(t, dir, Options{NoFsync: noFsync}, seam{segBytes: 4 << 10})
		const appenders = 4
		const perAppender = 400
		var wg sync.WaitGroup
		errs := make(chan error, appenders+1)
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(a), 7))
				for i := 0; i < perAppender; i++ {
					n := 1 + rng.IntN(24)
					if rng.IntN(50) == 0 {
						n = 700
					}
					ack, err := l.Append(commitRecord(uint64(a)<<32|uint64(i), n))
					if err == nil && i%8 == 0 {
						err = ack.Wait()
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		stop := make(chan struct{})
		var cp sync.WaitGroup
		cp.Add(1)
		go func() {
			defer cp.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := l.Sync(); err != nil {
					errs <- err
					return
				}
				seg, _ := l.Position()
				if err := l.TruncateBefore(seg); err != nil {
					errs <- err
					return
				}
				l.TailAck().Wait()
			}
		}()
		wg.Wait()
		close(stop)
		cp.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		total := appenders * perAppender
		if got := l.Stats().Records; got != uint64(total) {
			t.Fatalf("stats count %d records, %d appended", got, total)
		}
		last, _ := l.Position()
		var seqs []uint64
		for idx := last; ; idx-- {
			if _, err := os.Stat(filepath.Join(dir, SegName(idx))); err != nil {
				break
			}
			recs, end, b := readSegment(t, dir, idx)
			if end != len(b) {
				t.Fatalf("segment %d: %d bytes past its last record", idx, len(b)-end)
			}
			for i := len(recs) - 1; i >= 0; i-- {
				seqs = append(seqs, recs[i].Seq)
			}
			if idx == 0 {
				break
			}
		}
		for i, seq := range seqs {
			if want := uint64(total - 1 - i); seq != want {
				t.Fatalf("%d records from the end: seq %d, want %d", i, seq, want)
			}
		}
		if len(seqs) == 0 {
			t.Fatal("no records left on disk")
		}
	})
}

// BenchmarkLogAppend appends served-size records under NoFsync: the
// cost a committing thread pays for its record. It must report
// 0 allocs/op.
func BenchmarkLogAppend(b *testing.B) {
	l, err := OpenLog(b.TempDir(), 0, 0, Options{NoFsync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := servedRecord()
	b.SetBytes(int64(recordLen(rec)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
