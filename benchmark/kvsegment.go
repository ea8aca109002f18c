package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/prng"
	"repro/internal/scenarios/tmkv"
	"repro/tm"
	"repro/tm/serve"
)

// The served configuration every kv-serve* segment uses.
const (
	kvBackend  = "srv-tmkv"
	mergeWidth = 8
	queueDepth = 1024
	// stallLimit is how long a served segment may go without completing
	// a request before the run is declared failed.
	stallLimit = 10 * time.Second
)

func newBackend() serve.Backend {
	be, err := serve.New(kvBackend)
	if err != nil {
		fatalf("%v", err)
	}
	return be
}

// buildStream pre-builds the first n requests of the seed's stream, so
// the timed segments generate nothing.
func buildStream(seed uint64, n int) []serve.Request {
	be := newBackend()
	reqs := make([]serve.Request, n)
	for i := range reqs {
		reqs[i] = be.NewRequest(seed, uint64(i))
	}
	return reqs
}

// poissonSchedule returns n arrival times, in ns from the segment's
// origin, of a Poisson process of the given rate, drawn from seed.
func poissonSchedule(seed uint64, n int, rate float64) []int64 {
	r := prng.New(seed ^ 0xA076_1D64_78BD_642F)
	due := make([]int64, n)
	t := 0.0
	for i := range due {
		t += r.Exp(rate)
		due[i] = int64(t * 1e9)
	}
	return due
}

// reply is what a request returned, kept for the reference gate.
type reply struct {
	w0, w1  uint64
	aborted bool
}

// segment is one measured segment: a fresh runtime (or server), a
// warm-up tenth, and a timed remainder.
type segment struct {
	n        int // requests
	warm     int // requests [0, warm) are warm-up: excluded from latency and throughput
	setupNs  int64
	startNs  int64 // start of the timed part
	endNs    int64
	latByReq []int64 // ns per request, warm-up included
	replies  []reply
	failed   int

	snap       tm.Snapshot
	batch      tm.BatchStats
	spaceWords int
	checksum   uint64

	itemByReq []int64 // direct, traced: time of be.Item per request
	lateNs    []int64 // open: generator lateness per request
	submitNs  int64   // served, traced: total time inside SubmitRequest
	oneOffNs  int64   // time of the beforeStop step, which not every repetition has
	// Redo-log activity of the segment itself (set-up excluded).
	logBytes, logRecords, logBatches uint64
}

func (s *segment) timedOps() int { return s.n - s.warm }

func (s *segment) opsPerSec() float64 {
	return float64(s.timedOps()) / (float64(s.endNs-s.startNs) / 1e9)
}

// lat returns a copy of the post-warm-up latencies.
func (s *segment) lat() []int64 {
	return append([]int64(nil), s.latByReq[s.warm:]...)
}

// failedReply applies the failure rules shared by
// every kv workload: an Aborted reply, or a read whose value failed its
// checksum, fails the request.
func failedReply(req serve.Request, r reply) bool {
	return r.aborted || (req.Op == tmkv.OpRead && r.w0 == tmkv.ReadBadSum)
}

// Span names of the direct and served workloads.
const (
	spOp uint8 = iota
	spItem
	spAdmit
	spFlush
)

var directSpanNames = []string{"op", "item", "admit", "flush"}

const (
	spRequest uint8 = iota
	spSubmit
	spInflight
	spOpen
	spCheckpoint
	spCrash
	spRecover
)

var servedSpanNames = []string{"request", "submit", "inflight", "open", "checkpoint", "crash", "recover"}

// directSegment executes reqs with no server: T threads over one shared
// runtime, each owning a width-1 batcher and a strided share of the
// stream, timing every Admit+Flush. With T = 1 it is the reference
// pass of the served workloads.
func directSegment(p tm.Profile, T int, reqs []serve.Request, rec *recorder, wantChecksum bool) *segment {
	be := newBackend()
	n := len(reqs)
	seg := &segment{n: n, warm: n / 10, latByReq: make([]int64, n), replies: make([]reply, n)}
	if rec != nil {
		seg.itemByReq = make([]int64, n)
	}
	settle()
	t0 := nowNs()
	rt := tm.Open(append(p.Options(), tm.WithMemory(be.MemConfig(T, n)))...)
	be.Setup(rt)
	seg.setupNs = nowNs() - t0
	rt.ResetStats() // the counters cover the stream, not the preload

	batchers := make([]*tm.Batcher, T)
	for t := range batchers {
		batchers[t] = tm.NewBatcher(rt.Thread(t), 1, be.ReplyWords())
	}
	// Threads meet once, at the end of their warm-up share, so the timed
	// part starts for all of them together. Each thread fills buffers of
	// its own (neighbouring requests belong to different threads, and
	// shared result slices would put their writes on one cache line).
	type threadOut struct {
		lat, item []int64
		replies   []reply
		failed    int
	}
	outs := make([]threadOut, T)
	var arrive, finish sync.WaitGroup
	arrive.Add(T)
	finish.Add(T)
	release := make(chan struct{})
	for t := 0; t < T; t++ {
		share := (n - t + T - 1) / T
		outs[t] = threadOut{lat: make([]int64, 0, share), replies: make([]reply, 0, share)}
		if rec != nil {
			outs[t].item = make([]int64, 0, share)
		}
		go func(t int) {
			defer finish.Done()
			b, out := batchers[t], &outs[t]
			met := false
			meet := func() {
				met = true
				arrive.Done()
				<-release
			}
			for i := t; i < n; i += T {
				if !met && i >= seg.warm {
					meet()
				}
				var res tm.BatchResult
				var end int64
				t0 := nowNs()
				if rec == nil {
					b.Admit(be.Item(reqs[i]))
					res = b.Flush()
					end = nowNs()
				} else {
					it := be.Item(reqs[i])
					t1 := nowNs()
					b.Admit(it)
					t2 := nowNs()
					res = b.Flush()
					end = nowNs()
					op := rec.add(spOp, -1, int32(i), t0, end)
					rec.add(spItem, op, int32(i), t0, t1)
					rec.add(spAdmit, op, int32(i), t1, t2)
					rec.add(spFlush, op, int32(i), t2, end)
					out.item = append(out.item, t1-t0)
				}
				out.lat = append(out.lat, end-t0)
				r := res.Replies[0]
				rp := reply{w0: r.Words[0], w1: r.Words[1], aborted: r.Aborted}
				out.replies = append(out.replies, rp)
				if failedReply(reqs[i], rp) {
					out.failed++
				}
			}
			if !met {
				meet()
			}
		}(t)
	}
	arrive.Wait()
	seg.startNs = nowNs()
	close(release)
	finish.Wait()
	seg.endNs = nowNs()

	for t := range outs {
		for k, i := 0, t; i < n; k, i = k+1, i+T {
			seg.latByReq[i] = outs[t].lat[k]
			seg.replies[i] = outs[t].replies[k]
			if rec != nil {
				seg.itemByReq[i] = outs[t].item[k]
			}
		}
		seg.failed += outs[t].failed
	}
	rt.Validate() // no leaked ownership record
	seg.snap = rt.Snapshot()
	seg.spaceWords = rt.Unwrap().Space().Size()
	if wantChecksum {
		seg.checksum = rt.Unwrap().Space().Checksum()
	}
	if err := rt.Close(); err != nil {
		fatalf("closing direct runtime: %v", err)
	}
	return seg
}

// servedCfg describes one served segment.
type servedCfg struct {
	profile     tm.Profile
	memRequests int     // sizes the server's memory; the same for every segment of a workload
	durRoot     string  // parent of the durability directory; "" = not durable
	due         []int64 // open segment: arrival offsets in ns; nil = closed loop
	outstanding int     // closed loop: requests in flight
	rec         *recorder
	// beforeStop runs once every request has completed, before Stop:
	// the durable workload's checkpoint probe and crash/recover step.
	beforeStop   func(srv *serve.Server, seg *segment, dir string, opts []tm.Option)
	wantChecksum bool
}

// servedSegment runs reqs through a fresh serve.Server with the rig's
// own load generator: one goroutine (this one) that has every request,
// result slot and done callback built before the timed part, so the
// generator adds no garbage of its own. A closed loop blocks on a token
// channel; an open loop busy-waits to each due time and times latency
// from it.
func servedSegment(c servedCfg, reqs []serve.Request) *segment {
	be := newBackend()
	n := len(reqs)
	rec := c.rec
	seg := &segment{n: n, warm: n / 10, latByReq: make([]int64, n), replies: make([]reply, n)}
	opts := c.profile.Options()
	dir := ""
	if c.durRoot != "" {
		dir = scratchDir(c.durRoot, "dur-")
		opts = append(opts, tm.WithDurability(dir, tm.DurNoFsync()))
	}

	settle()
	t0 := nowNs()
	srv := serve.NewServer(be, serve.Config{
		Workers: serveWorkers(), MergeWidth: mergeWidth, QueueDepth: queueDepth,
		Requests: c.memRequests, Options: opts,
	})
	seg.setupNs = nowNs() - t0
	rec.add(spOpen, -1, -1, t0, nowNs())
	srv.Runtime().ResetStats() // the counters cover the stream, not the preload
	var logBase tm.DurabilityStats
	if d := srv.Runtime().Snapshot().Durability; d != nil {
		logBase = *d
	}

	type slot struct {
		start, end       int64
		w0, w1           uint64
		aborted          bool
		reqSpan, flySpan int32
	}
	slots := make([]slot, n)
	var tokens chan struct{}
	if c.due == nil {
		tokens = make(chan struct{}, c.outstanding)
		for i := 0; i < c.outstanding; i++ {
			tokens <- struct{}{}
		}
	} else {
		seg.lateNs = make([]int64, n)
	}
	var completed atomic.Int64
	allDone := make(chan struct{})
	done := make([]func(serve.Reply), n)
	for i := range done {
		s := &slots[i]
		done[i] = func(r serve.Reply) {
			s.end = nowNs()
			s.aborted, s.w0, s.w1 = r.Aborted, r.Words[0], r.Words[1]
			rec.end(s.flySpan, s.end)
			rec.end(s.reqSpan, s.end)
			if tokens != nil {
				tokens <- struct{}{}
			}
			if completed.Add(1) == int64(n) {
				close(allDone)
			}
		}
	}
	// A request that does not complete within stallLimit fails the run.
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		last, lastChange := int64(-1), time.Now()
		for {
			select {
			case <-allDone:
				return
			case <-tick.C:
				if now := completed.Load(); now != last {
					last, lastChange = now, time.Now()
				} else if time.Since(lastChange) > stallLimit {
					fatalf("served segment stalled: %d of %d requests completed, none for %v", now, n, stallLimit)
				}
			}
		}
	}()

	srv.Start()
	origin := nowNs() + int64(time.Millisecond)
	for i := 0; i < n; i++ {
		s := &slots[i]
		if tokens != nil {
			<-tokens
			s.start = nowNs()
			if i == seg.warm {
				seg.startNs = s.start
			}
		} else {
			due := origin + c.due[i]
			now := nowNs()
			for now < due {
				if due-now > 20_000 {
					runtime.Gosched() // let the worker and the log flusher have the core
				}
				now = nowNs()
			}
			seg.lateNs[i] = now - due
			s.start = due
			if i == seg.warm {
				seg.startNs = due
			}
		}
		if rec == nil {
			s.reqSpan, s.flySpan = -1, -1
			if err := srv.SubmitRequest(reqs[i], done[i]); err != nil {
				fatalf("submit: %v", err)
			}
			continue
		}
		// The in-flight span's slot is reserved before the hand-off (its
		// callback may run before SubmitRequest returns) and its start is
		// filled in after.
		s.reqSpan = rec.begin(spRequest, -1, int32(i), s.start)
		s.flySpan = rec.begin(spInflight, s.reqSpan, int32(i), s.start)
		t0 := nowNs()
		if err := srv.SubmitRequest(reqs[i], done[i]); err != nil {
			fatalf("submit: %v", err)
		}
		t1 := nowNs()
		rec.add(spSubmit, s.reqSpan, int32(i), t0, t1)
		rec.setStart(s.flySpan, t1)
		seg.submitNs += t1 - t0
	}
	<-allDone

	for i := range slots {
		s := &slots[i]
		seg.latByReq[i] = s.end - s.start
		seg.replies[i] = reply{w0: s.w0, w1: s.w1, aborted: s.aborted}
		if failedReply(reqs[i], seg.replies[i]) {
			seg.failed++
		}
		if s.end > seg.endNs {
			seg.endNs = s.end
		}
	}
	if d := srv.Runtime().Snapshot().Durability; d != nil {
		seg.logBytes = d.LogBytes - logBase.LogBytes
		seg.logRecords = d.Records - logBase.Records
		seg.logBatches = d.Batches - logBase.Batches
	}
	if c.wantChecksum {
		seg.checksum = srv.Runtime().Unwrap().Space().Checksum()
	}
	if c.beforeStop != nil {
		t0 := nowNs()
		c.beforeStop(srv, seg, dir, opts)
		seg.oneOffNs = nowNs() - t0
	}
	if err := srv.Stop(); err != nil {
		fatalf("stopping server: %v", err)
	}
	srv.Runtime().Validate() // no leaked ownership record
	seg.snap = srv.Runtime().Snapshot()
	seg.batch = srv.BatchStats()
	seg.spaceWords = srv.Runtime().Unwrap().Space().Size()
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			fatalf("removing %s: %v", dir, err)
		}
	}
	return seg
}

// sameReplies is the reference gate: with one worker, one generator and
// a FIFO queue the served closed segment executes the stream in index
// order, so every reply must equal the width-1 single-thread direct
// execution of the same stream.
func sameReplies(rep *report, what string, got, want *segment) {
	for i := range want.replies {
		if got.replies[i] != want.replies[i] {
			rep.gate("%s: reply %d is %+v, reference direct execution gave %+v", what, i, got.replies[i], want.replies[i])
			return
		}
	}
}

// dirSizeMB sums the regular files under dir.
func dirSizeMB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return float64(total) / 1e6
}

// crashRecover is the durable workload's last gate: the space a crash
// leaves behind must be reproduced exactly by tm.Recover from the
// directory. Killing the process's log leaves the page cache intact;
// discarding un-flushed bytes first needs the wal.FS seam of ROADMAP 4b
// and is out of scope here.
func crashRecover(rep *report, rec *recorder, out map[string]float64) func(*serve.Server, *segment, string, []tm.Option) {
	return func(srv *serve.Server, seg *segment, dir string, opts []tm.Option) {
		rt := srv.Runtime()
		if out != nil {
			out["wal.disk_mb"] = dirSizeMB(dir)
			t0 := nowNs()
			if err := rt.Checkpoint(); err != nil {
				rep.gate("checkpoint: %v", err)
			}
			t1 := nowNs()
			rec.add(spCheckpoint, -1, -1, t0, t1)
			out["wal.checkpoint_s"] = float64(t1-t0) / 1e9
		}
		before := rt.Unwrap().Space().Checksum()
		t0 := nowNs()
		rt.Crash()
		t1 := nowNs()
		rec.add(spCrash, -1, -1, t0, t1)
		rt2, err := tm.Recover(dir, opts...)
		t2 := nowNs()
		rec.add(spRecover, -1, -1, t1, t2)
		if err != nil {
			rep.gate("recover: %v", err)
			return
		}
		after := rt2.Unwrap().Space().Checksum()
		if after != before {
			rep.gate("recovered space checksum %#x differs from pre-crash %#x", after, before)
		}
		if err := rt2.Close(); err != nil {
			rep.gate("closing recovered runtime: %v", err)
		}
		rep.note("crash/recover: checksum %#x reproduced in %.3f s (log killed in-process; un-flushed bytes are not discarded — needs the wal.FS seam, ROADMAP 4b)", before, float64(t2-t1)/1e9)
		if out != nil {
			out["wal.recover_s"] = float64(t2-t1) / 1e9
		}
	}
}
