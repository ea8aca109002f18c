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

// Options tune the log. The zero value is usable.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// reaches this size. Default 8 MiB.
	SegmentBytes int
	// NoFsync skips fsync after each batch write. Crash simulations run
	// in-process, so tests use this to keep the differential fast; real
	// deployments leave it off.
	NoFsync bool
}

// LogStats counts log activity. Fields are read with atomic loads via
// Log.Stats.
type LogStats struct {
	Records  uint64 // records appended
	Bytes    uint64 // payload+frame bytes appended
	Batches  uint64 // flusher write batches
	Fsyncs   uint64 // fsync calls issued
	Segments uint64 // segment files created
}

// chunk is one segment's share of a flush batch: bytes [from, upto) of
// the segment, copied to scratch at off.
type chunk struct {
	seg  *segBuf
	from int
	upto int
	off  int
}

// segBuf is one segment: the full byte image (header included) plus how
// much of it has reached the file.
type segBuf struct {
	idx     uint64
	data    []byte
	size    int // len(data) frozen once the buffer is released
	flushed int
	file    *os.File
}

// Log is a segmented append-only redo log with group commit. Append
// serializes a record into the in-memory tail under a mutex; a
// dedicated flusher goroutine batches everything that accumulated —
// across all appending threads — into one write+fsync and then closes
// that batch's done channel, acking every commit in the batch at once.
// This amortizes the write barrier across threads the same way
// tm.Batcher amortizes transactions.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	segs    []*segBuf // oldest first; tail = segs[len-1]
	spare   []byte    // buffer of the last released segment, for newSeg
	nextSeq uint64
	doneCh  chan struct{} // closed when the next batch is durable
	queued  bool          // a record was appended since flushOnce last took the tail
	writing chan struct{} // the done channel of the batch being written, nil when idle
	err     error         // sticky I/O error
	closed  bool

	wake        chan struct{}
	quit        chan struct{}
	flusherDone chan struct{}
	scratch     []byte  // flushOnce's copy of the batch, reused
	chunks      []chunk // flushOnce's batch description, reused

	records  atomic.Uint64
	bytes    atomic.Uint64
	batches  atomic.Uint64
	fsyncs   atomic.Uint64
	segments atomic.Uint64
}

// OpenLog creates (or reuses) dir and starts a log whose first segment
// has index startSeg and whose first record gets sequence startSeq.
// A fresh log starts at (0, 0); a recovered runtime passes the
// RecoveredState's NextSeg/NextSeq so old and new segments never
// collide.
func OpenLog(dir string, startSeg, startSeq uint64, opts Options) (*Log, error) {
	l, err := newLog(dir, startSeg, startSeq, opts)
	if err != nil {
		return nil, err
	}
	go l.flusher()
	return l, nil
}

// newLog is OpenLog without the flusher goroutine.
func newLog(dir string, startSeg, startSeq uint64, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 8 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		dir:         dir,
		opts:        opts,
		nextSeq:     startSeq,
		doneCh:      make(chan struct{}),
		wake:        make(chan struct{}, 1),
		quit:        make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	l.segs = append(l.segs, l.newSeg(startSeg))
	return l, nil
}

// segSlack is the room a segment buffer has past SegmentBytes: rotation
// happens after the append that crosses the limit, so the last record
// overshoots it. A larger record still fits; append then grows the
// buffer.
const segSlack = 4 << 10

// newSeg starts segment idx in a buffer sized for the whole segment, so
// appends under the mutex never reallocate it: the one flushOnce
// released at the last rotation if there is one, else a fresh one.
// Callers hold l.mu (or own l exclusively).
func (l *Log) newSeg(idx uint64) *segBuf {
	data := l.spare
	l.spare = nil
	if data == nil {
		data = make([]byte, 0, l.opts.SegmentBytes+segSlack)
	}
	data = data[:segHdrLen]
	copy(data, segMagic)
	binary.LittleEndian.PutUint64(data[8:], idx)
	l.segments.Add(1)
	return &segBuf{idx: idx, data: data}
}

// Ack is a handle on the durability of one appended record.
type Ack struct {
	l  *Log
	ch chan struct{}
}

// Wait blocks until the record's batch has been written (and fsynced,
// unless NoFsync) and returns the log's sticky error state. The zero
// Ack returns nil at once.
func (a Ack) Wait() error {
	if a.ch == nil {
		return nil
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

// Append assigns rec the next sequence number, serializes it into the
// tail segment, and wakes the flusher. The returned Ack waits for the
// batch containing this record; callers that don't need the barrier
// (aborts, non-transactional journal entries) ignore it.
func (l *Log) Append(rec *Record) (Ack, error) {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		if err == nil {
			err = os.ErrClosed
		}
		return Ack{}, err
	}
	rec.Seq = l.nextSeq
	l.nextSeq++
	tail := l.segs[len(l.segs)-1]
	before := len(tail.data)
	tail.data = AppendRecord(tail.data, rec)
	l.records.Add(1)
	l.bytes.Add(uint64(len(tail.data) - before))
	// Rotate at append time so Position() values stay stable: a
	// (segment, offset) pair captured now is never shifted by a later
	// rotation.
	if len(tail.data) >= l.opts.SegmentBytes {
		l.segs = append(l.segs, l.newSeg(tail.idx+1))
	}
	l.queued = true
	ack := Ack{l: l, ch: l.doneCh}
	l.mu.Unlock()
	l.wakeFlusher()
	return ack, nil
}

// TailAck returns the ack of the pending flush — the one after which
// every record appended so far is durable — or the zero Ack when every
// record has been written. One flusher writes batches in append order,
// so an ack also covers every earlier record: a reader that saw a
// commit it did not log itself waits on TailAck before revealing it.
func (l *Log) TailAck() Ack {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
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

// Sync blocks until everything appended so far is durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	pending := false
	for _, s := range l.segs {
		if s.flushed < len(s.data) {
			pending = true
			break
		}
	}
	if !pending || l.closed {
		l.mu.Unlock()
		return nil
	}
	ch := l.doneCh
	l.mu.Unlock()
	l.wakeFlusher()
	<-ch
	// One batch may not have drained everything appended after our
	// snapshot of doneCh; loop until clean.
	return l.Sync()
}

// Position returns the current append position: the tail segment index
// and the byte offset within it (header included). A checkpoint records
// this as its log cut; recovery replays records at or after the cut.
func (l *Log) Position() (seg, off uint64) {
	l.mu.Lock()
	tail := l.segs[len(l.segs)-1]
	seg, off = tail.idx, uint64(len(tail.data))
	l.mu.Unlock()
	return seg, off
}

// TruncateBefore deletes segment files wholly below seg. Only fully
// flushed, non-tail segments are removed; the checkpointer calls Sync
// first so everything below its cut qualifies.
func (l *Log) TruncateBefore(seg uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var firstErr error
	kept := l.segs[:0]
	for i, s := range l.segs {
		if s.idx >= seg || i == len(l.segs)-1 || s.flushed < len(s.data) {
			kept = append(kept, s)
			continue
		}
		if s.file != nil {
			s.file.Close()
			s.file = nil
		}
		if err := os.Remove(filepath.Join(l.dir, SegName(s.idx))); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
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

// Close flushes everything pending and closes the segment files. It is
// idempotent. Close writes no seal record; the runtime layer appends
// one (and waits for its ack) before calling Close.
func (l *Log) Close() error {
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
	err := l.err
	l.mu.Unlock()
	return err
}

// Kill simulates a crash for tests: pending bytes are flushed (an
// in-process "crash" cannot lose the page cache) and files are closed,
// but no seal is written and the log refuses further appends. Acked
// records are durable at ack time regardless; Kill only decides the
// fate of unacked tail records, and "all of them survived" is one of
// the legal crash outcomes.
func (l *Log) Kill() { l.Close() }

func (l *Log) flusher() {
	defer close(l.flusherDone)
	for {
		select {
		case <-l.quit:
			l.flushOnce()
			l.mu.Lock()
			close(l.doneCh) // release late Sync/Ack waiters; appends are rejected
			for _, s := range l.segs {
				if s.file != nil {
					s.file.Close()
					s.file = nil
				}
			}
			l.mu.Unlock()
			return
		case <-l.wake:
		}
		l.flushOnce()
	}
}

// flushOnce writes every byte appended since the last flush — across
// all segments — fsyncs the touched files, and closes the batch's done
// channel. Bytes are copied out under the mutex because appenders may
// grow (and reallocate) a segment's buffer while the write is in
// flight.
func (l *Log) flushOnce() {
	// Even a batch with no unflushed bytes swaps and closes the done
	// channel: Sync may be waiting on it after a spurious wake (the
	// segment header counts as pending until its first flush).
	l.mu.Lock()
	chunks := l.chunks[:0]
	need := 0
	for _, s := range l.segs {
		if s.flushed < len(s.data) {
			need += len(s.data) - s.flushed
		}
	}
	if cap(l.scratch) < need {
		l.scratch = make([]byte, need)
	}
	buf := l.scratch[:0]
	for _, s := range l.segs {
		if s.flushed >= len(s.data) {
			continue
		}
		upto := len(s.data)
		chunks = append(chunks, chunk{seg: s, from: s.flushed, upto: upto, off: len(buf)})
		buf = append(buf, s.data[s.flushed:upto]...)
	}
	l.chunks = chunks
	done := l.doneCh
	l.doneCh = make(chan struct{})
	l.queued = false
	if len(chunks) > 0 {
		// An empty flush (a second wake for bytes an earlier batch
		// took) leaves TailAck zero: nothing appended is unwritten.
		l.writing = done
	}
	l.mu.Unlock()

	var ioErr error
	for _, c := range chunks {
		if c.seg.file == nil {
			f, err := os.OpenFile(filepath.Join(l.dir, SegName(c.seg.idx)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				ioErr = err
				break
			}
			c.seg.file = f
		}
		if _, err := c.seg.file.Write(buf[c.off : c.off+(c.upto-c.from)]); err != nil {
			ioErr = err
			break
		}
		if !l.opts.NoFsync {
			if err := c.seg.file.Sync(); err != nil {
				ioErr = err
				break
			}
			l.fsyncs.Add(1)
		}
	}
	l.batches.Add(1)

	l.mu.Lock()
	l.writing = nil
	if ioErr != nil {
		if l.err == nil {
			l.err = ioErr
		}
	} else {
		tail := l.segs[len(l.segs)-1]
		for _, c := range chunks {
			c.seg.flushed = c.upto
			// A fully flushed non-tail segment is immutable: release its
			// buffer and file handle.
			if c.seg != tail && c.seg.flushed == len(c.seg.data) {
				c.seg.size = len(c.seg.data)
				l.spare, c.seg.data = c.seg.data, nil
				if c.seg.file != nil {
					c.seg.file.Close()
					c.seg.file = nil
				}
			}
		}
	}
	l.mu.Unlock()
	close(done)
}
