package serve

import (
	"errors"
	"runtime"
	"sync"

	"repro/tm"
)

// Config sizes a Server.
type Config struct {
	// Workers is the worker-pool size; each worker owns one tm.Thread
	// and one tm.Batcher. <1 defaults to runtime.NumCPU(), the top of
	// the harness's DefaultThreadCounts grid.
	Workers int
	// MergeWidth is the maximum requests merged into one transaction;
	// 1 disables merging (every request runs in its own transaction).
	// <1 defaults to 1.
	MergeWidth int
	// QueueDepth is the accept-queue capacity; Submit blocks when it
	// is full. <1 defaults to 4 × Workers × MergeWidth.
	QueueDepth int
	// Requests hints how many requests the server will execute, for
	// memory sizing. <1 defaults to 1<<16.
	Requests int
	// Options configure the transactional runtime (a tm.Profile's
	// Options(), typically). The backend's MemConfig is applied on
	// top, so profile options need not size memory.
	Options []tm.Option
}

// Reply is the application-visible outcome of one request.
type Reply struct {
	// Aborted reports that the request's Apply refused it in its own
	// transaction (after merged fallback, if any).
	Aborted bool
	// Merged reports that the request committed inside a merged
	// multi-request transaction.
	Merged bool
	// Words is the backend's ReplyWords-word reply block.
	Words []uint64
}

// job is one accepted request traveling to a worker.
type job struct {
	item tm.BatchItem
	done func(Reply)
}

// Server executes decoded requests on a pool of workers, merging
// compatible ones into single transactions. Lifecycle: NewServer
// (opens the runtime, runs the backend's Setup), Start, any number of
// concurrent Submits, Stop (drains and joins). Submit must not be
// called after Stop.
type Server struct {
	be       Backend
	cfg      Config
	rt       *tm.Runtime
	jobs     chan job
	wg       sync.WaitGroup
	batchers []*tm.Batcher

	// stopMu orders submissions against Stop: submitters hold the read
	// side while sending, Stop takes the write side before closing the
	// queue, so a late Submit returns ErrStopped instead of panicking on
	// a closed channel.
	stopMu  sync.RWMutex
	stopped bool
}

// ErrStopped is returned by Submit and SubmitRequest after Stop has
// begun.
var ErrStopped = errors.New("serve: server stopped")

// NewServer opens a runtime sized by the backend and populated by its
// Setup, ready to Start.
func NewServer(be Backend, cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.MergeWidth < 1 {
		cfg.MergeWidth = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 4 * cfg.Workers * cfg.MergeWidth
	}
	if cfg.Requests < 1 {
		cfg.Requests = 1 << 16
	}
	opts := make([]tm.Option, 0, len(cfg.Options)+1)
	opts = append(opts, cfg.Options...)
	opts = append(opts, tm.WithMemory(be.MemConfig(cfg.Workers, cfg.Requests)))
	rt := tm.Open(opts...)
	// The preload's commits need not each wait for the log: one Sync
	// makes all of them durable before the server can reply to anyone.
	// Sync rather than the scope's ack, because Setup's journaled
	// non-transactional writes carry no ack. A log error is sticky;
	// Stop reports it.
	rt.Unwrap().Thread(0).Deferred(func() { be.Setup(rt) })
	rt.Sync()
	s := &Server{
		be:       be,
		cfg:      cfg,
		rt:       rt,
		jobs:     make(chan job, cfg.QueueDepth),
		batchers: make([]*tm.Batcher, cfg.Workers),
	}
	for i := range s.batchers {
		s.batchers[i] = tm.NewBatcher(rt.Thread(i), cfg.MergeWidth, be.ReplyWords())
	}
	return s
}

// Runtime returns the server's transactional runtime (statistics,
// validation).
func (s *Server) Runtime() *tm.Runtime { return s.rt }

// Backend returns the backend this server was built over.
func (s *Server) Backend() Backend { return s.be }

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
}

// Stop closes the accept queue, waits for the workers to drain it and
// flush their batches, then closes the server-owned runtime (flushing
// and sealing its redo log when the profile included tm.WithDurability).
// Every submitted request's done callback has run when Stop returns.
// Stop is idempotent; calls after the first return once the first drain
// has finished, reporting the same close outcome.
func (s *Server) Stop() error {
	s.stopMu.Lock()
	already := s.stopped
	s.stopped = true
	s.stopMu.Unlock()
	if !already {
		close(s.jobs)
	}
	s.wg.Wait()
	return s.rt.Close()
}

// Submit decodes one wire-encoded request and queues it; done is
// invoked with the reply on the serving worker's goroutine, once the
// request's commit — and every commit it read — is durable, in commit
// order per worker. It blocks while the accept queue is full, returns a
// codec error (leaving done uncalled) for a request that does not
// decode to exactly the given bytes, and ErrStopped after Stop has
// begun.
func (s *Server) Submit(wire []byte, done func(Reply)) error {
	req, n, err := DecodeRequest(wire)
	if err != nil {
		return err
	}
	if n != len(wire) {
		return ErrBadRequest
	}
	return s.SubmitRequest(req, done)
}

// SubmitRequest queues an already-decoded request (the in-process
// shortcut past the codec); done runs as for Submit. It returns
// ErrStopped — leaving done uncalled — once Stop has begun.
func (s *Server) SubmitRequest(req Request, done func(Reply)) error {
	// The read lock spans the send: Stop cannot close the queue while
	// any submitter is between the stopped check and the send, and
	// workers keep draining until the close, so the send never blocks
	// against the drain.
	s.stopMu.RLock()
	defer s.stopMu.RUnlock()
	if s.stopped {
		return ErrStopped
	}
	s.jobs <- job{item: s.be.Item(req), done: done}
	return nil
}

// BatchStats sums the workers' batcher counters: requests, batches,
// merged commits, fallbacks, transactions. Call it after Stop (or
// before Start); reading while workers run is racy.
func (s *Server) BatchStats() tm.BatchStats {
	var sum tm.BatchStats
	for _, b := range s.batchers {
		st := b.Stats()
		sum.Requests += st.Requests
		sum.Batches += st.Batches
		sum.Merged += st.Merged
		sum.Fallbacks += st.Fallbacks
		sum.Txns += st.Txns
	}
	return sum
}

// ringCap is how many flushed batches a worker holds while their redo
// records are fsynced. Batches flushed during one fsync share its
// successor's ack, so the ring fills up with them. Without fsync
// (DurNoFsync) every ack is done when its batch is pushed and the ring
// never holds more than that one batch. Sized when every ack still
// waited for the flusher to write() its record: on kv-serve-durable (one
// worker, merge width 8, 64 requests outstanding; 2-vCPU Xeon) the
// worker found the ring full at 2.8 % of its flushes with 8 slots,
// 13.5 % with 4 and 0.3–0.6 % with 16, and single runs resolved no
// throughput difference between 8 and 16.
const ringCap = 8

// heldBatch is one flushed batch whose replies wait for its ack: the
// callbacks and copies of the replies, in storage the ring reuses.
type heldBatch struct {
	res   tm.BatchResult // Replies is not kept: the next Flush reuses it
	dones []func(Reply)
	reps  []Reply
}

// replyRing holds a worker's flushed batches in commit order until
// they are durable, so the worker executes the next batch while the
// log flusher syncs the last.
type replyRing struct {
	slots      [ringCap]heldBatch
	head, size int
}

// push holds a flushed batch; the ring must not be full.
func (r *replyRing) push(res tm.BatchResult, dones []func(Reply)) {
	h := &r.slots[(r.head+r.size)%ringCap]
	r.size++
	h.res = res
	h.res.Replies = nil
	h.dones = append(h.dones[:0], dones...)
	h.reps = h.reps[:0]
	for _, r := range res.Replies {
		h.reps = append(h.reps, Reply{Aborted: r.Aborted, Merged: res.Merged && !r.Aborted, Words: r.Words})
	}
}

// deliver replies to the oldest batch, waiting for its ack if block is
// set; it reports false, doing nothing, when the ring is empty or the
// oldest batch is not durable and block is not set.
func (r *replyRing) deliver(block bool) bool {
	if r.size == 0 {
		return false
	}
	h := &r.slots[r.head]
	if block {
		h.res.Wait() // sticky log errors surface at Stop
	} else if !h.res.Durable() {
		return false
	}
	for j, done := range h.dones {
		done(h.reps[j])
	}
	r.head = (r.head + 1) % ringCap
	r.size--
	return true
}

// worker is the per-thread serve loop: block for a request, then
// greedily drain the queue into the batcher, flushing when the batch
// fills, when an incompatible request arrives, or when the queue goes
// momentarily idle — so merging never trades latency for width beyond
// what the offered load sustains. A flushed batch's replies wait in
// the ring until its commits are durable; the worker blocks on the
// oldest only when the ring is full or the queue is empty.
func (s *Server) worker(i int) {
	defer s.wg.Done()
	b := s.batchers[i]
	pending := make([]func(Reply), 0, b.Width())
	var ring replyRing

	flush := func() {
		if b.Len() == 0 {
			return
		}
		res := b.Flush()
		if ring.size == ringCap {
			ring.deliver(true)
		}
		ring.push(res, pending)
		for ring.deliver(false) {
		}
		pending = pending[:0]
	}
	admit := func(j job) {
		if !b.Admit(j.item) {
			flush()
			b.Admit(j.item) // an empty batch admits anything
		}
		pending = append(pending, j.done)
		if b.Len() >= b.Width() {
			flush()
		}
	}
	// next returns the next request, delivering held replies while the
	// queue is empty; ok is false once the queue is closed and drained.
	next := func() (job, bool) {
		for {
			select {
			case j, ok := <-s.jobs:
				return j, ok
			default:
			}
			if !ring.deliver(true) {
				j, ok := <-s.jobs
				return j, ok
			}
		}
	}

	defer func() {
		for ring.deliver(true) {
		}
	}()
	for {
		j, ok := next()
		if !ok {
			flush()
			return
		}
		admit(j)
		for b.Len() > 0 {
			select {
			case j, ok := <-s.jobs:
				if !ok {
					flush()
					return
				}
				admit(j)
			default:
				flush()
			}
		}
	}
}
