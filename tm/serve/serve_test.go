package serve_test

// Black-box tests of the serving front-end: codec round-trips, the
// worker loop's merge behaviour, per-request fallback, the open-loop
// client population, and a concurrent stress of Batcher admission and
// fallback (run under -race in CI).

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	_ "repro/internal/scenarios/tmkv" // registers srv-tmkv for the allocation budget
	"repro/internal/wal"
	"repro/tm"
	"repro/tm/serve"
)

// Opcodes of the test backend: a bank of counters.
const (
	opGet  = 0 // reply: [current value, key]
	opAdd  = 1 // add Arg to cell Key; reply: [new value, key]
	opFail = 2 // always refuses (abort)
	opScan = 3 // exclusive whole-bank sum; reply: [sum, n]
)

// countBackend is a minimal backend over a global array of counters.
type countBackend struct {
	n     int
	cells tm.Struct
}

func (b *countBackend) MemConfig(workers, total int) tm.MemConfig {
	return tm.MemConfig{
		GlobalWords: 1 << 10, HeapWords: 1 << 14, StackWords: 1 << 12,
		MaxThreads: workers,
	}
}

func (b *countBackend) Setup(rt *tm.Runtime) { b.cells = rt.AllocGlobal(b.n) }

func (b *countBackend) ReplyWords() int { return 2 }

func (b *countBackend) NewRequest(seed, i uint64) serve.Request {
	h := (seed + i + 1) * 0x9E3779B97F4A7C15
	op := uint8(opAdd)
	if i%10 == 9 {
		op = opGet
	}
	return serve.Request{Op: op, Key: h % uint64(b.n), Arg: 1 + h>>32%7}
}

func (b *countBackend) Item(req serve.Request) tm.BatchItem {
	key := int(req.Key % uint64(b.n))
	switch req.Op {
	case opGet:
		return tm.BatchItem{
			Footprint: tm.Footprint{Reads: []uint64{uint64(key)}},
			Apply: func(tx *tm.Tx, reply tm.Struct) bool {
				reply.Word(0).Store(tx, b.cells.Word(key).Load(tx))
				reply.Word(1).Store(tx, uint64(key))
				return true
			},
		}
	case opAdd:
		arg := req.Arg
		return tm.BatchItem{
			Footprint: tm.Footprint{Writes: []uint64{uint64(key)}},
			Apply: func(tx *tm.Tx, reply tm.Struct) bool {
				reply.Word(0).Store(tx, b.cells.Word(key).Add(tx, arg))
				reply.Word(1).Store(tx, uint64(key))
				return true
			},
		}
	case opScan:
		return tm.BatchItem{
			Exclusive: true, // unbounded footprint: merges with nothing
			Apply: func(tx *tm.Tx, reply tm.Struct) bool {
				var sum uint64
				for k := 0; k < b.n; k++ {
					sum += b.cells.Word(k).Load(tx)
				}
				reply.Word(0).Store(tx, sum)
				reply.Word(1).Store(tx, uint64(b.n))
				return true
			},
		}
	default:
		return tm.BatchItem{
			Footprint: tm.Footprint{Writes: []uint64{uint64(key)}},
			Apply: func(tx *tm.Tx, reply tm.Struct) bool {
				b.cells.Word(key).Add(tx, 1) // must be rolled back
				return false
			},
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	cases := []serve.Request{
		{},
		{Op: 7, Client: 3, Key: 42, Arg: 5},
		{Op: 255, Client: 1<<32 - 1, Key: 1<<64 - 1, Arg: 1 << 40},
	}
	var wire []byte
	for _, want := range cases {
		wire = serve.AppendRequest(wire[:0], want)
		got, n, err := serve.DecodeRequest(wire)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if n != len(wire) {
			t.Errorf("decode %+v consumed %d of %d bytes", want, n, len(wire))
		}
		if got != want {
			t.Errorf("round-trip = %+v, want %+v", got, want)
		}
	}
	// Two requests back to back decode one at a time.
	wire = serve.AppendRequest(nil, cases[1])
	wire = serve.AppendRequest(wire, cases[2])
	first, n, err := serve.DecodeRequest(wire)
	if err != nil || first != cases[1] {
		t.Fatalf("first of stream = %+v, %v", first, err)
	}
	second, _, err := serve.DecodeRequest(wire[n:])
	if err != nil || second != cases[2] {
		t.Fatalf("second of stream = %+v, %v", second, err)
	}
}

func TestCodecErrors(t *testing.T) {
	if _, _, err := serve.DecodeRequest(nil); err == nil {
		t.Error("empty input decoded")
	}
	wire := serve.AppendRequest(nil, serve.Request{Op: 1, Client: 9, Key: 1 << 50, Arg: 3})
	for cut := 1; cut < len(wire); cut++ {
		if _, _, err := serve.DecodeRequest(wire[:cut]); err == nil {
			t.Errorf("truncation at %d decoded", cut)
		}
	}
	// A client id beyond uint32 is malformed.
	bad := []byte{1}
	bad = append(bad, bytes.Repeat([]byte{0xFF}, 5)...)
	bad = append(bad, 0x1F, 0, 0)
	if _, _, err := serve.DecodeRequest(bad); err == nil {
		t.Error("oversized client id decoded")
	}
}

// TestServerMergesQueuedRequests: requests queued before Start against
// a single worker drain into one merged transaction.
func TestServerMergesQueuedRequests(t *testing.T) {
	be := &countBackend{n: 64}
	s := serve.NewServer(be, serve.Config{Workers: 1, MergeWidth: 8, QueueDepth: 8})
	var mu sync.Mutex
	replies := make(map[uint64]serve.Reply)
	for i := 0; i < 8; i++ {
		key := uint64(i) // distinct keys: all compatible
		s.SubmitRequest(serve.Request{Op: opAdd, Key: key, Arg: key + 1}, func(r serve.Reply) {
			mu.Lock()
			replies[key] = r
			mu.Unlock()
		})
	}
	s.Start()
	s.Stop()

	for i := uint64(0); i < 8; i++ {
		r, ok := replies[i]
		if !ok || r.Aborted {
			t.Fatalf("request %d: reply %+v, ok=%v", i, r, ok)
		}
		if !r.Merged {
			t.Errorf("request %d not served merged", i)
		}
		if r.Words[0] != i+1 || r.Words[1] != i {
			t.Errorf("request %d reply words = %v", i, r.Words)
		}
		if v := be.cells.Word(int(i)).Peek(s.Runtime()); v != i+1 {
			t.Errorf("cell %d = %d, want %d", i, v, i+1)
		}
	}
	st := s.BatchStats()
	if st.Requests != 8 || st.Merged != 1 || st.Txns != 1 {
		t.Errorf("stats = %+v, want one merged batch of 8", st)
	}
	if r := st.MergeRatio(); r != 8 {
		t.Errorf("merge ratio = %v, want 8", r)
	}
	s.Runtime().Validate()
}

// TestServerFallback: a refusing request in a queued batch aborts the
// merged attempt; fallback serves the others and flags only the
// refuser, losing no request.
func TestServerFallback(t *testing.T) {
	be := &countBackend{n: 8}
	s := serve.NewServer(be, serve.Config{Workers: 1, MergeWidth: 4, QueueDepth: 4})
	replies := make([]serve.Reply, 3)
	var mu sync.Mutex
	for i := 0; i < 3; i++ {
		op := uint8(opAdd)
		if i == 1 {
			op = opFail
		}
		idx := i
		s.SubmitRequest(serve.Request{Op: op, Key: uint64(i), Arg: 10}, func(r serve.Reply) {
			mu.Lock()
			replies[idx] = r
			mu.Unlock()
		})
	}
	s.Start()
	s.Stop()

	if replies[0].Aborted || replies[2].Aborted || !replies[1].Aborted {
		t.Errorf("aborted flags = %v %v %v, want false true false",
			replies[0].Aborted, replies[1].Aborted, replies[2].Aborted)
	}
	for _, i := range []int{0, 2} {
		if replies[i].Merged {
			t.Errorf("fallback reply %d claims merged", i)
		}
		if replies[i].Words[0] != 10 {
			t.Errorf("reply %d = %v, want committed add", i, replies[i].Words)
		}
	}
	if v := be.cells.Word(1).Peek(s.Runtime()); v != 0 {
		t.Errorf("refused request's effect visible: cell 1 = %d", v)
	}
	st := s.BatchStats()
	if st.Fallbacks != 1 || st.Merged != 0 || st.Requests != 3 {
		t.Errorf("stats = %+v, want one fallback of 3", st)
	}
	s.Runtime().Validate()
}

// TestSubmitWire: the codec path end to end, including rejection of
// malformed submissions.
func TestSubmitWire(t *testing.T) {
	be := &countBackend{n: 8}
	s := serve.NewServer(be, serve.Config{Workers: 1, MergeWidth: 2})
	s.Start()
	var wg sync.WaitGroup
	wg.Add(1)
	var got serve.Reply
	wire := serve.AppendRequest(nil, serve.Request{Op: opAdd, Client: 5, Key: 3, Arg: 7})
	if err := s.Submit(wire, func(r serve.Reply) { got = r; wg.Done() }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	wg.Wait()
	if got.Aborted || got.Words[0] != 7 {
		t.Errorf("reply = %+v", got)
	}
	if err := s.Submit(wire[:2], func(serve.Reply) {}); err == nil {
		t.Error("truncated wire accepted")
	}
	if err := s.Submit(append(wire, 0), func(serve.Reply) {}); err == nil {
		t.Error("trailing bytes accepted")
	}
	s.Stop()
	s.Runtime().Validate()
}

// TestSubmitAfterStop: submissions after Stop return ErrStopped with
// the callback uncalled, instead of panicking on the closed queue; Stop
// itself is idempotent.
func TestSubmitAfterStop(t *testing.T) {
	be := &countBackend{n: 8}
	s := serve.NewServer(be, serve.Config{Workers: 1, MergeWidth: 2})
	s.Start()
	s.Stop()
	s.Stop() // idempotent: second call must not close twice or hang

	called := false
	if err := s.SubmitRequest(serve.Request{Op: opAdd, Key: 1, Arg: 1}, func(serve.Reply) {
		called = true
	}); err != serve.ErrStopped {
		t.Errorf("SubmitRequest after Stop = %v, want ErrStopped", err)
	}
	wire := serve.AppendRequest(nil, serve.Request{Op: opAdd, Key: 2, Arg: 1})
	if err := s.Submit(wire, func(serve.Reply) { called = true }); err != serve.ErrStopped {
		t.Errorf("Submit after Stop = %v, want ErrStopped", err)
	}
	if called {
		t.Error("done callback ran for a rejected submission")
	}
	if v := be.cells.Word(1).Peek(s.Runtime()); v != 0 {
		t.Errorf("rejected request's effect visible: %d", v)
	}
	s.Runtime().Validate()
}

// TestWorkerFlushOnIncompatible pins the worker's mid-batch flush: an
// exclusive request arriving into a half-full batch flushes the queued
// requests first, and every reply stays aligned with its own request
// across the flush boundary.
func TestWorkerFlushOnIncompatible(t *testing.T) {
	be := &countBackend{n: 16}
	s := serve.NewServer(be, serve.Config{Workers: 1, MergeWidth: 4, QueueDepth: 4})
	type outcome struct {
		r  serve.Reply
		ok bool
	}
	var mu sync.Mutex
	got := make([]outcome, 4)
	submit := func(idx int, req serve.Request) {
		if err := s.SubmitRequest(req, func(r serve.Reply) {
			mu.Lock()
			got[idx] = outcome{r: r, ok: true}
			mu.Unlock()
		}); err != nil {
			t.Fatalf("submit %d: %v", idx, err)
		}
	}
	// Two compatible adds half-fill the width-4 batch; the exclusive
	// scan cannot join and must flush them; the final add cannot join
	// the exclusive batch either.
	submit(0, serve.Request{Op: opAdd, Key: 3, Arg: 30})
	submit(1, serve.Request{Op: opAdd, Key: 5, Arg: 50})
	submit(2, serve.Request{Op: opScan})
	submit(3, serve.Request{Op: opAdd, Key: 7, Arg: 70})
	s.Start()
	s.Stop()

	for i, o := range got {
		if !o.ok {
			t.Fatalf("request %d got no reply", i)
		}
		if o.r.Aborted {
			t.Errorf("request %d aborted", i)
		}
	}
	// The two adds flushed together (merged); the scan observed both of
	// their effects and nothing from the add behind it.
	if !got[0].r.Merged || !got[1].r.Merged {
		t.Errorf("half-full batch did not merge: %v %v", got[0].r.Merged, got[1].r.Merged)
	}
	if got[2].r.Merged {
		t.Error("exclusive scan reported merged")
	}
	if w := got[0].r.Words; w[0] != 30 || w[1] != 3 {
		t.Errorf("reply 0 = %v, want [30 3]", w)
	}
	if w := got[1].r.Words; w[0] != 50 || w[1] != 5 {
		t.Errorf("reply 1 = %v, want [50 5]", w)
	}
	if w := got[2].r.Words; w[0] != 80 || w[1] != 16 {
		t.Errorf("scan reply = %v, want [80 16]", w)
	}
	if w := got[3].r.Words; w[0] != 70 || w[1] != 7 {
		t.Errorf("reply 3 = %v, want [70 7]", w)
	}
	st := s.BatchStats()
	if st.Batches != 3 || st.Merged != 1 || st.Requests != 4 {
		t.Errorf("stats = %+v, want 3 batches (merged pair, scan, add)", st)
	}
	s.Runtime().Validate()
}

// TestOpenLoop drives the population against a small server and checks
// the accounting: every request completes, latencies are measured, and
// the committed state matches the deterministic request stream.
func TestOpenLoop(t *testing.T) {
	be := &countBackend{n: 64}
	s := serve.NewServer(be, serve.Config{Workers: 2, MergeWidth: 4, Requests: 512})
	s.Start()
	res := s.RunOpenLoop(serve.OpenLoop{Clients: 4, Rate: 200000, Requests: 512, Seed: 11})
	s.Stop()

	if res.Requests != 512 || len(res.LatenciesNs) != 512 {
		t.Fatalf("requests = %d, latencies = %d", res.Requests, len(res.LatenciesNs))
	}
	for i, l := range res.LatenciesNs {
		if l <= 0 {
			t.Fatalf("latency[%d] = %d", i, l)
		}
	}
	if res.Aborted != 0 {
		t.Errorf("aborted = %d, want 0 (stream has no refusing ops)", res.Aborted)
	}
	if res.AchievedRPS() <= 0 {
		t.Errorf("achieved rps = %v", res.AchievedRPS())
	}
	// Replay the deterministic stream: every add's arg lands in its cell.
	want := make([]uint64, be.n)
	for i := 0; i < 512; i++ {
		req := be.NewRequest(11, uint64(i))
		if req.Op == opAdd {
			want[req.Key%uint64(be.n)] += req.Arg
		}
	}
	for k, w := range want {
		if v := be.cells.Word(k).Peek(s.Runtime()); v != w {
			t.Errorf("cell %d = %d, want %d", k, v, w)
		}
	}
	if st := s.BatchStats(); st.Requests != 512 {
		t.Errorf("served %d requests, want 512", st.Requests)
	}
	s.Runtime().Validate()
}

// TestServeStress hammers a server from many goroutines with
// overlapping keys (admission conflicts force flushes) and refusing
// ops (merged aborts force fallbacks); run under -race in CI. The
// final counter sums must equal the committed adds exactly — no
// request lost, no refused effect leaked.
func TestServeStress(t *testing.T) {
	const (
		goroutines = 8
		perG       = 400
		cells      = 4 // tiny key space: constant conflicts
	)
	be := &countBackend{n: cells}
	s := serve.NewServer(be, serve.Config{
		Workers: 4, MergeWidth: 4, Requests: goroutines * perG,
	})
	s.Start()
	var done sync.WaitGroup
	done.Add(goroutines * perG)
	var issuers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		issuers.Add(1)
		go func(g int) {
			defer issuers.Done()
			for i := 0; i < perG; i++ {
				op := uint8(opAdd)
				if i%10 == 3 {
					op = opFail
				}
				s.SubmitRequest(serve.Request{
					Op: op, Key: uint64(g*perG + i), Arg: 1,
				}, func(serve.Reply) { done.Done() })
			}
		}(g)
	}
	issuers.Wait()
	done.Wait()
	s.Stop()

	var total uint64
	for k := 0; k < cells; k++ {
		total += be.cells.Word(k).Peek(s.Runtime())
	}
	var want uint64
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if i%10 != 3 {
				want++
			}
		}
	}
	if total != want {
		t.Errorf("committed adds = %d, want %d", total, want)
	}
	st := s.BatchStats()
	if st.Requests != goroutines*perG {
		t.Errorf("served %d requests, want %d", st.Requests, goroutines*perG)
	}
	s.Runtime().Validate()
}

// TestServeRequestAllocBudget counts what one served request costs the
// Go allocator. With the simulated space outside the heap the
// collector's goal is a few MB, so request-path garbage turns directly
// into GC cycles; the budget keeps it from growing back. Counted, not
// timed: 20 000 srv-tmkv requests through one worker at merge width 8,
// requests and callbacks built beforehand, 64 in flight — after as many
// again unmeasured, which grow every per-thread buffer to its working
// size. The redo log encodes every record into one reused buffer and
// writes it to the segment file, so a rotation allocates only its
// segment's bookkeeping.
func TestServeRequestAllocBudget(t *testing.T) {
	const (
		n           = 20000
		outstanding = 64
	)
	for _, c := range []struct {
		name               string
		durable            bool
		maxBytes, maxAlloc float64
	}{
		{name: "non-durable", maxBytes: 120, maxAlloc: 2},
		{name: "durable", durable: true, maxBytes: 150, maxAlloc: 2.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			be, err := serve.New("srv-tmkv")
			if err != nil {
				t.Fatal(err)
			}
			opts := tm.RuntimeAll(tm.LogTree).Perf().Options() // the rig's served profile
			if c.durable {
				opts = append(opts, tm.WithDurability(t.TempDir(), tm.DurNoFsync()))
			}
			s := serve.NewServer(be, serve.Config{Workers: 1, MergeWidth: 8, Requests: 2 * n, Options: opts})
			reqs := make([]serve.Request, 2*n)
			for i := range reqs {
				reqs[i] = be.NewRequest(1, uint64(i))
			}
			tokens := make(chan struct{}, outstanding)
			for i := 0; i < outstanding; i++ {
				tokens <- struct{}{}
			}
			var wg sync.WaitGroup
			done := func(serve.Reply) {
				tokens <- struct{}{}
				wg.Done()
			}
			run := func(reqs []serve.Request) {
				wg.Add(len(reqs))
				for i := range reqs {
					<-tokens
					if err := s.SubmitRequest(reqs[i], done); err != nil {
						t.Fatal(err)
					}
				}
				wg.Wait()
			}
			s.Start()
			run(reqs[:n])

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(reqs[n:])
			runtime.ReadMemStats(&after)

			if err := s.Stop(); err != nil {
				t.Fatal(err)
			}
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
			mallocs := float64(after.Mallocs-before.Mallocs) / n
			t.Logf("%.1f B and %.2f mallocs per request (merge ratio %.2f)", bytes, mallocs, s.BatchStats().MergeRatio())
			if bytes > c.maxBytes || mallocs > c.maxAlloc {
				t.Errorf("per request: %.1f B and %.2f mallocs, budget %.0f B and %.1f", bytes, mallocs, c.maxBytes, c.maxAlloc)
			}
		})
	}
}

// ackBackend is countBackend with each request's Apply noting how many
// log bytes had been appended when it last executed. Request i carries
// i in Key / n.
type ackBackend struct {
	countBackend
	log  *wal.Log
	seen []uint64
}

func (b *ackBackend) Item(req serve.Request) tm.BatchItem {
	it := b.countBackend.Item(req)
	apply, i := it.Apply, req.Key/uint64(b.n)
	it.Apply = func(tx *tm.Tx, reply tm.Struct) bool {
		b.seen[i] = b.log.Stats().Bytes
		return apply(tx, reply)
	}
	return it
}

// TestServeRepliesOnlyWhenDurable runs adds, reads and refusals through
// two durable workers and fails if a done callback runs before the log
// file holds every byte appended before its request executed: a reply
// must not reveal a commit — its own, or another worker's it may have
// read — that a crash could still lose.
func TestServeRepliesOnlyWhenDurable(t *testing.T) {
	const (
		goroutines = 4
		perG       = 500
		cells      = 4
	)
	dir := t.TempDir()
	be := &ackBackend{countBackend: countBackend{n: cells}, seen: make([]uint64, goroutines*perG)}
	s := serve.NewServer(be, serve.Config{
		Workers: 2, MergeWidth: 4, Requests: goroutines * perG,
		Options: []tm.Option{tm.WithDurability(dir, tm.DurNoFsync())},
	})
	be.log = s.Runtime().Unwrap().Durable()
	seg := filepath.Join(dir, wal.SegName(0))
	s.Start()
	var done sync.WaitGroup
	done.Add(goroutines * perG)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for k := 0; k < perG; k++ {
				i := g*perG + k
				op := uint8(opAdd)
				switch {
				case i%10 == 3:
					op = opFail
				case i%3 == 0:
					op = opGet
				}
				s.SubmitRequest(serve.Request{Op: op, Key: uint64(i*cells + i%cells), Arg: 1}, func(serve.Reply) {
					defer done.Done()
					fi, err := os.Stat(seg)
					if err != nil {
						t.Error(err)
						return
					}
					if written := uint64(fi.Size() - 16); written < be.seen[i] {
						t.Errorf("request %d replied with %d log bytes written, %d appended before it ran", i, written, be.seen[i])
					}
				})
			}
		}(g)
	}
	done.Wait()
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestNewServerPreloadDurable checks that the preload, run without a
// durability wait per commit, is durable when NewServer returns: the
// log has nothing pending, and a crash right then recovers the
// preloaded space exactly.
func TestNewServerPreloadDurable(t *testing.T) {
	be, err := serve.New("srv-tmkv")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := tm.RuntimeAll(tm.LogTree).Perf().Options()
	s := serve.NewServer(be, serve.Config{
		Workers: 1, Requests: 1000,
		Options: append(opts[:len(opts):len(opts)], tm.WithDurability(dir, tm.DurNoFsync())),
	})
	rt := s.Runtime()
	if !rt.Unwrap().Durable().TailAck().Done() {
		t.Fatal("NewServer returned with preload records not yet written")
	}
	want := rt.Unwrap().Space().Checksum()
	rt.Crash()
	rt2, err := tm.Recover(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if got := rt2.Unwrap().Space().Checksum(); got != want {
		t.Errorf("recovered checksum %#x, preload left %#x", got, want)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
}
