package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Segment files are named seg-%08d.wal and begin with a 16-byte header:
// an 8-byte magic followed by the little-endian segment index, so a
// file renamed by accident cannot be replayed under the wrong index.
const (
	segMagic  = "WALSEGM1"
	segHdrLen = 16
)

// SegName returns the file name of segment idx.
func SegName(idx uint64) string { return fmt.Sprintf("seg-%08d.wal", idx) }

// segmentBytes is the length each segment file is reserved at. The log
// rotates to a new segment when a record does not fit in the rest of
// the tail, and trims the finished one to the bytes it holds. A larger
// record gets a segment of its own size.
const segmentBytes = 8 << 20

// Options tune the log. The zero value is usable.
type Options struct {
	// NoFsync skips fsync: a record is durable once it is in the page
	// cache, which it is when Append returns, so every ack is done at
	// once. Crash simulations run in-process, where the page cache
	// survives, so tests use this to keep the differential fast; real
	// deployments leave it off.
	NoFsync bool
}

// LogStats counts log activity. Fields are read with atomic loads via
// Log.Stats.
type LogStats struct {
	Records  uint64 // records appended
	Bytes    uint64 // payload+frame bytes appended
	Batches  uint64 // flusher fsync batches (none under NoFsync)
	Fsyncs   uint64 // fdatasync calls issued
	Segments uint64 // segment files created
}

// segment is one log file, reserved at its full length when created.
// Append writes each record to the file at the end of the last one.
type segment struct {
	idx  uint64
	f    *os.File // closed once the segment is finished and durable
	size int      // reserved length
	used int      // bytes appended, header included
	// changes counts the writes and the trim that an fsync must cover;
	// an fsync batch takes syncing and, once done, sets synced to it.
	changes, syncing, synced uint64
}

// Log is a segmented append-only redo log. Append serializes a record
// under a mutex and writes it to the tail segment, so its bytes are in
// the page cache when Append returns. Under NoFsync that is durable:
// Append returns the zero (done) Ack and nothing else runs. With fsync
// on, a dedicated flusher goroutine batches everything that
// accumulated — across all appending threads — into one fdatasync per
// touched file and closes that batch's done channel, acking every
// commit in the batch at once, the way tm.Batcher amortizes
// transactions.
type Log struct {
	dir  string
	opts Options
	seam seam

	mu       sync.Mutex
	segs     []*segment // segment files this log owns, oldest first; tail = segs[len-1]
	buf      []byte     // the record being written, reused
	nextSeq  uint64
	doneCh   chan struct{} // closed when the next batch is durable
	queued   bool          // a record was appended since flushOnce last took the batch
	writing  chan struct{} // the done channel of the batch being synced, nil when idle
	dirDirty bool          // a segment was named since the last batch
	err      error         // sticky I/O error
	closed   bool

	wake        chan struct{}
	quit        chan struct{}
	flusherDone chan struct{}

	records  atomic.Uint64
	bytes    atomic.Uint64
	batches  atomic.Uint64
	fsyncs   atomic.Uint64
	segments atomic.Uint64
}

// seam is the log's unexported test seam, the first piece of a
// fault-injecting file layer: it shrinks segments, fails segment
// creation and holds the flusher between taking a batch and syncing
// it.
type seam struct {
	segBytes int // segment length; newLog sets segmentBytes when 0
	// fault runs once a segment file is reserved, before the log names
	// it its tail, and an error fails the creation. Rotation runs it
	// under l.mu.
	fault func(name string) error
	hold  func() // runs in flushOnce after the batch is taken
}

// OpenLog creates (or reuses) dir and starts a log whose first segment
// has index startSeg and whose first record gets sequence startSeq.
// A fresh log starts at (0, 0); a recovered runtime passes the
// RecoveredState's NextSeg/NextSeq so old and new segments never
// collide. The first segment is created and reserved before OpenLog
// returns, so a failure there is OpenLog's error.
func OpenLog(dir string, startSeg, startSeq uint64, opts Options) (*Log, error) {
	l, err := newLog(dir, startSeg, startSeq, opts, seam{})
	if err != nil {
		return nil, err
	}
	l.startFlusher()
	return l, nil
}

// newLog is OpenLog without the flusher goroutine.
func newLog(dir string, startSeg, startSeq uint64, opts Options, sm seam) (*Log, error) {
	if sm.segBytes <= 0 {
		sm.segBytes = segmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		dir:         dir,
		opts:        opts,
		seam:        sm,
		nextSeq:     startSeq,
		doneCh:      make(chan struct{}),
		wake:        make(chan struct{}, 1),
		quit:        make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	if err := l.startSegment(startSeg, sm.segBytes); err != nil {
		return nil, err
	}
	return l, nil
}

// startFlusher starts the goroutine that runs fsync batches. Under
// NoFsync there are none, and no goroutine.
func (l *Log) startFlusher() {
	if l.opts.NoFsync {
		close(l.flusherDone)
		return
	}
	go l.flusher()
}

// startSegment creates segment idx, reserved at size bytes, writes its
// header and makes it the tail. On failure it leaves no file behind.
// Callers hold l.mu (or own l exclusively).
func (l *Log) startSegment(idx uint64, size int) error {
	name := SegName(idx)
	path := filepath.Join(l.dir, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	s := &segment{idx: idx, f: f, size: size}
	err = reserve(f, size)
	if err == nil && l.seam.fault != nil {
		err = l.seam.fault(name)
	}
	if err == nil {
		var hdr [segHdrLen]byte
		copy(hdr[:], segMagic)
		binary.LittleEndian.PutUint64(hdr[8:], idx)
		err = s.write(hdr[:])
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	l.segs = append(l.segs, s)
	l.segments.Add(1)
	l.dirDirty = true
	return nil
}

// write puts b in s after its last write.
func (s *segment) write(b []byte) error {
	if _, err := s.f.WriteAt(b, int64(s.used)); err != nil {
		return err
	}
	s.used += len(b)
	s.changes++
	return nil
}

// durable reports whether every write to s, and its trim, is durable.
// Callers hold l.mu.
func (l *Log) durable(s *segment) bool { return l.opts.NoFsync || s.synced == s.changes }

// closeFile closes s's file, once. Callers hold l.mu.
func (s *segment) closeFile() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// Ack is a handle on the durability of one appended record.
type Ack struct {
	l   *Log
	ch  chan struct{}
	err error // a refused record's error: the ack is done and Wait returns it
}

// Wait blocks until the record's batch has been fsynced and returns the
// log's sticky error state. The zero Ack — what Append returns under
// NoFsync — returns nil at once; the ack of a record Append refused
// returns that error at once.
func (a Ack) Wait() error {
	if a.ch == nil {
		return a.err
	}
	<-a.ch
	a.l.mu.Lock()
	err := a.l.err
	a.l.mu.Unlock()
	return err
}

// Done reports, without blocking, whether Wait would return at once.
func (a Ack) Done() bool {
	if a.ch == nil {
		return true
	}
	select {
	case <-a.ch:
		return true
	default:
		return false
	}
}

// Append assigns rec the next sequence number, serializes it and
// writes it to the tail segment, rotating first if it does not fit; its
// bytes are in the page cache when Append returns. Under NoFsync the
// returned Ack is the zero one, already done; otherwise it waits for
// the fsync batch containing this record, and callers that don't need
// the barrier (aborts, non-transactional journal entries) ignore it.
// An error is sticky: this and every later Append, Sync and Close
// return it, and the Ack of a refused record is done and its Wait
// returns the error, so a caller that keeps only the Ack still sees it.
func (l *Log) Append(rec *Record) (Ack, error) {
	n := recordLen(rec)
	l.mu.Lock()
	if l.err != nil || l.closed {
		err := l.err
		l.mu.Unlock()
		if err == nil {
			err = os.ErrClosed
		}
		return Ack{err: err}, err
	}
	tail := l.segs[len(l.segs)-1]
	if tail.used+n > tail.size {
		if err := l.rotate(n); err != nil {
			l.mu.Unlock()
			return Ack{err: err}, err
		}
		tail = l.segs[len(l.segs)-1]
	}
	rec.Seq = l.nextSeq
	if cap(l.buf) < n {
		l.buf = make([]byte, n)
	}
	b := l.buf[:n]
	putRecord(b, rec)
	if err := tail.write(b); err != nil {
		l.err = err
		l.mu.Unlock()
		return Ack{err: err}, err
	}
	l.nextSeq++
	l.records.Add(1)
	l.bytes.Add(uint64(n))
	if l.opts.NoFsync {
		l.mu.Unlock()
		return Ack{}, nil
	}
	l.queued = true
	ack := Ack{l: l, ch: l.doneCh}
	l.mu.Unlock()
	l.wakeFlusher()
	return ack, nil
}

// rotate trims the tail to its used length and starts the next segment
// with room for an n-byte record. The trim comes before the successor
// has a name, so only the final segment can end in reserved zero
// bytes. A failure is the log's sticky error. Callers hold l.mu.
func (l *Log) rotate(n int) error {
	tail := l.segs[len(l.segs)-1]
	err := tail.f.Truncate(int64(tail.used))
	if err == nil {
		tail.changes++ // the trim: the next fsync batch covers it
		if l.durable(tail) {
			tail.closeFile()
		}
		err = l.startSegment(tail.idx+1, max(l.seam.segBytes, segHdrLen+n))
	}
	if err != nil {
		l.err = err
	}
	return err
}

// TailAck returns the ack of the pending fsync batch — the one after
// which every record appended so far is durable — or the zero Ack when
// every record is: always under NoFsync. One flusher syncs batches in
// append order, so an ack also covers every earlier record: a reader
// that saw a commit it did not log itself waits on TailAck before
// revealing it. After a sticky error it is a done ack returning that
// error, since a refused record never becomes durable.
func (l *Log) TailAck() Ack {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.err != nil:
		return Ack{err: l.err}
	case l.queued: // Append woke the flusher for this batch
		return Ack{l: l, ch: l.doneCh}
	case l.writing != nil:
		return Ack{l: l, ch: l.writing}
	}
	return Ack{}
}

func (l *Log) wakeFlusher() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Sync blocks until everything appended so far is durable, and returns
// the sticky error. Under NoFsync it returns at once.
func (l *Log) Sync() error {
	for {
		l.mu.Lock()
		err := l.err
		if err != nil || l.closed || !l.pending() {
			l.mu.Unlock()
			return err
		}
		ch := l.doneCh
		l.mu.Unlock()
		l.wakeFlusher()
		// One batch may not cover everything appended after our
		// snapshot of doneCh; loop until clean.
		<-ch
	}
}

// pending reports whether an fsync batch has work. Callers hold l.mu.
func (l *Log) pending() bool {
	if l.opts.NoFsync {
		return false
	}
	for _, s := range l.segs {
		if s.synced < s.changes {
			return true
		}
	}
	return l.dirDirty
}

// Position returns the current append position: the tail segment index
// and the byte offset within it (header included). A checkpoint records
// this as its log cut; recovery replays records at or after the cut.
func (l *Log) Position() (seg, off uint64) {
	l.mu.Lock()
	tail := l.segs[len(l.segs)-1]
	seg, off = tail.idx, uint64(tail.used)
	l.mu.Unlock()
	return seg, off
}

// TruncateBefore deletes segment files wholly below seg. Only durable,
// non-tail segments are removed; the checkpointer calls Sync first so
// everything below its cut qualifies.
func (l *Log) TruncateBefore(seg uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var firstErr error
	kept := l.segs[:0]
	for i, s := range l.segs {
		if s.idx >= seg || i == len(l.segs)-1 || !l.durable(s) {
			kept = append(kept, s)
			continue
		}
		s.closeFile() // a file must be closed to be removed on some platforms
		if err := os.Remove(filepath.Join(l.dir, SegName(s.idx))); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
	clear(l.segs[len(kept):])
	l.segs = kept
	return firstErr
}

// Stats returns a snapshot of the log counters.
func (l *Log) Stats() LogStats {
	return LogStats{
		Records:  l.records.Load(),
		Bytes:    l.bytes.Load(),
		Batches:  l.batches.Load(),
		Fsyncs:   l.fsyncs.Load(),
		Segments: l.segments.Load(),
	}
}

// Close syncs everything pending, trims the tail to its used length,
// and closes every file. It is idempotent and returns the sticky error.
// Close writes no seal record; the runtime layer appends one (and waits
// for its ack) before calling Close.
func (l *Log) Close() error { return l.stop(true) }

// Kill simulates a crash for tests: the log refuses further appends and
// closes its files, but writes no seal and trims nothing — the tail
// keeps its reserved, zero-filled length, as after a killed process.
// Every appended record survives (an in-process "crash" cannot lose
// the page cache); acked records are durable at ack time regardless,
// and "all of them survived" is one of the legal crash outcomes for the
// rest.
func (l *Log) Kill() { l.stop(false) }

func (l *Log) stop(clean bool) error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.flusherDone
	l.mu.Lock()
	defer l.mu.Unlock()
	if tail := l.segs[len(l.segs)-1]; clean && l.err == nil {
		err := tail.f.Truncate(int64(tail.used))
		if err == nil && !l.opts.NoFsync {
			err = datasync(tail.f)
		}
		l.err = err
	}
	for _, s := range l.segs {
		s.closeFile()
	}
	close(l.doneCh) // release late Sync/Ack waiters; appends are rejected
	return l.err
}

// flusher runs fsync batches until the log stops.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	for {
		select {
		case <-l.quit:
			l.flushOnce()
			return
		case <-l.wake:
			l.flushOnce()
		}
	}
}

// flushOnce fdatasyncs every segment written or trimmed since the last
// batch, and the directory if a segment was named, closes the batch's
// done channel, and closes the files of finished segments it made
// durable. The bytes are in the page cache already: nothing is copied.
func (l *Log) flushOnce() {
	// Even a batch with nothing to sync swaps and closes the done
	// channel: Sync may be waiting on it after a spurious wake.
	var buf [4]*segment
	todo := buf[:0]
	l.mu.Lock()
	for _, s := range l.segs {
		if s.synced < s.changes {
			s.syncing = s.changes
			todo = append(todo, s)
		}
	}
	dir := l.dirDirty
	l.dirDirty = false
	done := l.doneCh
	l.doneCh = make(chan struct{})
	l.queued = false
	if len(todo) > 0 || dir {
		// An empty batch (a second wake for changes an earlier batch
		// took) leaves TailAck zero: nothing appended is unsynced.
		l.writing = done
	}
	l.mu.Unlock()
	if l.seam.hold != nil {
		l.seam.hold()
	}

	// A segment in todo is not durable, so nothing closes its file
	// while the batch runs.
	var ioErr error
	for _, s := range todo {
		if ioErr = datasync(s.f); ioErr != nil {
			break
		}
		l.fsyncs.Add(1)
	}
	if ioErr == nil && dir {
		ioErr = syncDir(l.dir)
	}
	l.batches.Add(1)

	l.mu.Lock()
	l.writing = nil
	if ioErr != nil {
		if l.err == nil {
			l.err = ioErr
		}
	} else {
		for _, s := range todo {
			s.synced = s.syncing
		}
	}
	for _, s := range l.segs[:len(l.segs)-1] {
		if l.durable(s) {
			s.closeFile()
		}
	}
	l.mu.Unlock()
	close(done)
}
