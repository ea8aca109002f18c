package tmmsg

import (
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/prng"
	"repro/internal/scenarios/dist"
	"repro/internal/stm"
	"repro/internal/txlib"
	"repro/tm"
)

// Config describes one tmmsg workload mix. Percentages must sum to
// 100; Topics must be a power of two.
type Config struct {
	Name   string
	Topics int // topic-space size (power of two)
	Ops    int // total client transactions across all threads

	KeyWords             int // topic probe-key length in words
	RingCap              int // messages retained per topic
	Groups               int // consumer groups per topic
	MinBlocks, MaxBlocks int // payload size range, in BlockWords blocks

	PublishPct, ConsumePct, AckPct, LagPct int
	MaxBatch                               int // batch publish links 1..MaxBatch messages per commit
	ConsumeMax                             int // messages delivered per consume transaction
	AckMax                                 int // messages acknowledged per ack transaction
	ScanLimit                              int // topics visited per lag scan

	Zipf  bool    // Zipfian (true) or uniform (false) topic choice
	Theta float64 // Zipfian skew, in (0, 1)

	PreloadMsgs int // messages published per topic by Setup
	Seed        uint64
}

// Mixed returns the registered "tmmsg" configuration: a balanced
// broker blend over a Zipfian topic space.
func Mixed() Config {
	return Config{Name: "tmmsg", Topics: 64, Ops: 8192,
		KeyWords: 4, RingCap: 32, Groups: 2, MinBlocks: 1, MaxBlocks: 4,
		PublishPct: 40, ConsumePct: 30, AckPct: 20, LagPct: 10,
		MaxBatch: 4, ConsumeMax: 8, AckMax: 8, ScanLimit: 16,
		Zipf: true, Theta: 0.85, PreloadMsgs: 8, Seed: 1}
}

// PubHeavy returns "tmmsg-pub": batch-publish dominated — the
// allocate-build-publish regime where captured-memory elision has the
// most barriers to remove.
func PubHeavy() Config {
	return Config{Name: "tmmsg-pub", Topics: 64, Ops: 8192,
		KeyWords: 4, RingCap: 32, Groups: 2, MinBlocks: 2, MaxBlocks: 6,
		PublishPct: 70, ConsumePct: 15, AckPct: 5, LagPct: 10,
		MaxBatch: 8, ConsumeMax: 8, AckMax: 8, ScanLimit: 8,
		Zipf: true, Theta: 0.9, PreloadMsgs: 4, Seed: 2}
}

// SubHeavy returns "tmmsg-sub": cursor-dominated consume/ack traffic —
// contended read-modify-writes on definitely-shared words, the regime
// where capture checks are pure overhead.
func SubHeavy() Config {
	return Config{Name: "tmmsg-sub", Topics: 64, Ops: 8192,
		KeyWords: 4, RingCap: 48, Groups: 3, MinBlocks: 1, MaxBlocks: 3,
		PublishPct: 15, ConsumePct: 50, AckPct: 25, LagPct: 10,
		MaxBatch: 4, ConsumeMax: 12, AckMax: 12, ScanLimit: 16,
		Zipf: true, Theta: 0.85, PreloadMsgs: 24, Seed: 3}
}

// LagHeavy returns "tmmsg-lag": backlog-scan dominated monitoring
// traffic — read-only walks over many topics that store only into a
// captured stack accumulator, the regime where the read-mostly
// engine's zero write-path setup pays off.
func LagHeavy() Config {
	return Config{Name: "tmmsg-lag", Topics: 64, Ops: 8192,
		KeyWords: 4, RingCap: 32, Groups: 2, MinBlocks: 1, MaxBlocks: 3,
		PublishPct: 10, ConsumePct: 10, AckPct: 5, LagPct: 75,
		MaxBatch: 4, ConsumeMax: 8, AckMax: 8, ScanLimit: 32,
		Zipf: true, Theta: 0.85, PreloadMsgs: 16, Seed: 4}
}

// Small returns a fast fixed-seed configuration for tests; it is not
// registered.
func Small() Config {
	return Config{Name: "tmmsg-small", Topics: 16, Ops: 1024,
		KeyWords: 3, RingCap: 8, Groups: 2, MinBlocks: 1, MaxBlocks: 3,
		PublishPct: 35, ConsumePct: 35, AckPct: 20, LagPct: 10,
		MaxBatch: 3, ConsumeMax: 6, AckMax: 6, ScanLimit: 8,
		Zipf: true, Theta: 0.9, PreloadMsgs: 4, Seed: 7}
}

func init() {
	for _, reg := range []struct {
		cfg  Config
		desc string
	}{
		{Mixed(), "transactional message broker: mixed publish/consume/ack/lag blend"},
		{PubHeavy(), "tmmsg batch-publish heavy: captured-memory assembly dominates"},
		{SubHeavy(), "tmmsg consume/ack heavy: contended shared consumer cursors dominate"},
		{LagHeavy(), "tmmsg backlog-scan heavy: read-only topic walks dominate"},
	} {
		cfg := reg.cfg
		tm.RegisterWorkloadDesc(cfg.Name, reg.desc, func() tm.Workload { return New(cfg) })
	}
}

// threadStats counts the committed effects of one worker, applied to
// the Go side only after each transaction commits.
type threadStats struct {
	batches, published, drops uint64 // publish ops, messages linked, retention drops
	consumes, acks, lags      uint64 // committed ops by kind
	consumed, skipped, acked  uint64 // messages moved through group ledgers
	misses                    uint64 // ops that found no topic (must stay zero)
	badSum                    uint64 // checksum mismatches seen by consumers
}

// B is one tmmsg run. It implements tm.Workload; like the STAMP ports
// it is written against the low-level engine via Runtime.Unwrap.
type B struct {
	cfg    Config
	broker Broker
	dist   *dist.Zipf
	perTh  []threadStats

	preloadPub, preloadDrops uint64 // Setup's committed publishes
}

// New creates a workload instance from a configuration (instances are
// single use, like every registered workload).
func New(cfg Config) *B {
	if cfg.Topics&(cfg.Topics-1) != 0 || cfg.Topics == 0 {
		panic("tmmsg: Topics must be a power of two")
	}
	if p := cfg.PublishPct + cfg.ConsumePct + cfg.AckPct + cfg.LagPct; p != 100 {
		panic(fmt.Sprintf("tmmsg: %s mix sums to %d%%, want 100%%", cfg.Name, p))
	}
	return &B{cfg: cfg}
}

// Name implements tm.Workload.
func (b *B) Name() string { return b.cfg.Name }

// MemConfig implements tm.Workload: it sizes the heap for every topic
// retaining RingCap maximum-size messages, plus the full publish churn
// of the run. Dropped messages are reclaimed through per-thread limbo
// lists only at quiescence and recycle into the *freeing* thread's
// class lists, so under contention the central region must absorb, in
// the worst case, every message the run ever publishes (as if nothing
// were recycled). Address-space words are virtual — untouched ones
// cost nothing — so the headroom is cheap insurance against flaky
// heap exhaustion in the 4-thread matrices.
func (b *B) MemConfig() tm.MemConfig {
	c := b.cfg
	return c.memConfig(c.Topics*c.PreloadMsgs + c.Ops*c.MaxBatch)
}

// memConfig sizes the simulated address space for totalPublishes
// messages ever published (as if none were recycled), shared by the
// self-driving workload and the served backend.
func (c Config) memConfig(totalPublishes int) tm.MemConfig {
	perMsg := 1 + msgSize + 1 + c.MaxBlocks*BlockWords + 8 /* headers + class rounding */
	perTopic := tpSize + 2 + c.RingCap /* ring */ +
		c.Groups*(grSize+1) + c.Groups /* group records + array */ +
		8 + c.KeyWords /* index entry + key copy */
	live := c.Topics * (perTopic + c.RingCap*perMsg)
	churn := totalPublishes * perMsg
	words := live + churn +
		32*8192 /* per-thread allocation-cache spans */ +
		2*c.Topics /* buckets */ + (1 << 14)
	heap := 1 << 17
	for heap < words+words/2 {
		heap <<= 1
	}
	return tm.MemConfig{GlobalWords: 1 << 10, HeapWords: heap, StackWords: 1 << 12, MaxThreads: 32}
}

// opThresholds precomputes the cumulative mix boundaries.
func (c Config) opThresholds() [3]int {
	return [3]int{
		c.PublishPct,
		c.PublishPct + c.ConsumePct,
		c.PublishPct + c.ConsumePct + c.AckPct,
	}
}

// makeKey builds the probe key for a topic id in a transaction-local
// stack buffer (the packs' shared encoding).
func (b *B) makeKey(tx *stm.Tx, id uint64) mem.Addr {
	return dist.StackKey(tx, id, b.cfg.KeyWords)
}

// payloadShape derives a message's block count deterministically from
// (topic, sequence), so single-threaded runs are bit-reproducible.
func (c Config) payloadShape(id, seq uint64) int {
	span := c.MaxBlocks - c.MinBlocks + 1
	mix := (id*0x9E3779B97F4A7C15 + seq*0x2545F4914F6CDD1D) >> 17
	return (c.MinBlocks + int(mix%uint64(span))) * BlockWords
}

// fillPayload writes the deterministic content for (topic, sequence):
// fresh-provenance stores into the just-allocated payload — the
// captured-heap writes of the paper's Fig. 8. Shared by the
// self-driving workload and the served backend, so both generate
// bit-identical messages.
func (c Config) fillPayload(tx *stm.Tx, payload mem.Addr, id, seq uint64, words int) {
	base := id*0x9E3779B97F4A7C15 + seq*0x2545F4914F6CDD1D
	for j := 0; j < words; j++ {
		tx.Store(payload+mem.Addr(j), base+uint64(j)*13, stm.AccFresh)
	}
}

// publishN links n messages for the topic inside the current
// transaction, each assembled entirely in captured memory with the
// configuration's deterministic shape and content.
func publishN(tx *stm.Tx, c Config, tp mem.Addr, id uint64, n int) (published, drops uint64) {
	for i := 0; i < n; i++ {
		_, dropped := publishOne(tx, tp,
			func(seq uint64) int { return c.payloadShape(id, seq) },
			func(payload mem.Addr, seq uint64, words int) { c.fillPayload(tx, payload, id, seq, words) })
		published++
		if dropped {
			drops++
		}
	}
	return published, drops
}

// publishBatch runs one batch-publish transaction: n messages for the
// topic, all linked into the ring by the one commit.
func (b *B) publishBatch(th *stm.Thread, id uint64, n int) (published, drops uint64, ok bool) {
	th.Atomic(func(tx *stm.Tx) {
		published, drops, ok = 0, 0, false // retry-safe: judge only the committed attempt
		kb := b.makeKey(tx, id)
		tp, found := b.broker.topic(tx, kb, b.cfg.KeyWords)
		if !found {
			return
		}
		ok = true
		published, drops = publishN(tx, b.cfg, tp, id, n)
	})
	return published, drops, ok
}

// Setup implements tm.Workload: it creates the broker and topics, then
// preloads PreloadMsgs messages per topic single-threadedly, inside
// thread 0's Exclusive scope.
func (b *B) Setup(trt *tm.Runtime) {
	if b.cfg.Zipf {
		b.dist = dist.NewZipf(b.cfg.Topics, b.cfg.Theta)
	}
	th := trt.Unwrap().Thread(0)
	th.Exclusive(func() { b.broker, b.preloadPub, b.preloadDrops = b.cfg.setup(th) })
}

// setup creates the broker and topics on th, then preloads PreloadMsgs
// messages per topic in batches of at most MaxBatch, through the same
// publish path as the timed phase. It returns the broker and the
// preload's committed publishes and ring drops. The workload and the
// served backend share it.
func (c Config) setup(th *stm.Thread) (br Broker, pub, drops uint64) {
	th.Atomic(func(tx *stm.Tx) {
		br = NewBroker(tx, c.Topics)
	})
	for t := 0; t < c.Topics; t++ {
		id := dist.RankToKey(t, c.Topics)
		th.Atomic(func(tx *stm.Tx) {
			kb := dist.StackKey(tx, id, c.KeyWords)
			if !br.addTopic(tx, kb, c.KeyWords, c.RingCap, c.Groups) {
				panic("tmmsg: topic collision at setup")
			}
		})
	}
	th.EnterPhase(tm.PhasePublish) // preload publishes are publish-shaped
	for t := 0; t < c.Topics; t++ {
		id := dist.RankToKey(t, c.Topics)
		for done := 0; done < c.PreloadMsgs; {
			n := min(c.MaxBatch, c.PreloadMsgs-done)
			var p, d uint64
			th.Atomic(func(tx *stm.Tx) {
				kb := dist.StackKey(tx, id, c.KeyWords)
				tp, found := br.topic(tx, kb, c.KeyWords)
				if !found {
					panic("tmmsg: preload missed a topic")
				}
				p, d = publishN(tx, c, tp, id, n)
			})
			pub += p
			drops += d
			done += n
		}
	}
	return br, pub, drops
}

// pickTopic draws a topic id for one operation.
func (b *B) pickTopic(r *prng.R) uint64 {
	if b.dist != nil {
		return dist.RankToKey(b.dist.Sample(r), b.cfg.Topics)
	}
	return dist.RankToKey(r.Intn(b.cfg.Topics), b.cfg.Topics)
}

// Run implements tm.Workload: the timed parallel phase. Ops are split
// across nthreads workers, each with its own deterministic generator.
func (b *B) Run(trt *tm.Runtime, nthreads int) {
	rt := trt.Unwrap()
	b.perTh = make([]threadStats, nthreads)
	thresholds := b.cfg.opThresholds()
	var wg sync.WaitGroup
	for t := 0; t < nthreads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			b.worker(rt.Thread(tid), tid, nthreads, thresholds)
		}(t)
	}
	wg.Wait()
}

func (b *B) worker(th *stm.Thread, tid, nthreads int, thresholds [3]int) {
	c := b.cfg
	ops := c.Ops / nthreads
	if tid == 0 {
		ops += c.Ops % nthreads
	}
	r := prng.New(c.Seed + uint64(tid)*0x9E3779B97F4A7C15)
	st := &b.perTh[tid]
	for i := 0; i < ops; i++ {
		op := r.Intn(100)
		id := b.pickTopic(r)
		// Each operation is tagged with its capture regime. The hints
		// are unconditional: under a profile without tm.WithPhases they
		// select the default engine and the run is byte-for-byte the
		// classic single-engine one; under a phased profile they move
		// the thread onto the regime's compiled engine at the next
		// transaction boundary.
		switch {
		case op < thresholds[0]:
			th.EnterPhase(tm.PhasePublish)
			b.opPublish(th, st, r, id)
		case op < thresholds[1]:
			th.EnterPhase(tm.PhaseCursor)
			b.opConsume(th, st, r, id)
		case op < thresholds[2]:
			th.EnterPhase(tm.PhaseCursor)
			b.opAck(th, st, r, id)
		default:
			th.EnterPhase(tm.PhaseScan)
			b.opLag(th, st)
		}
	}
}

func (b *B) opPublish(th *stm.Thread, st *threadStats, r *prng.R, id uint64) {
	n := 1 + r.Intn(b.cfg.MaxBatch)
	pub, drops, ok := b.publishBatch(th, id, n)
	if !ok {
		st.misses++
		return
	}
	st.batches++
	st.published += pub
	st.drops += drops
}

func (b *B) opConsume(th *stm.Thread, st *threadStats, r *prng.R, id uint64) {
	gi := r.Intn(b.cfg.Groups)
	var consumed, skipped, bad int
	var ok bool
	th.Atomic(func(tx *stm.Tx) {
		consumed, skipped, bad, ok = 0, 0, 0, false // retry-safe
		kb := b.makeKey(tx, id)
		tp, found := b.broker.topic(tx, kb, b.cfg.KeyWords)
		if !found {
			return
		}
		ok = true
		consumed, skipped, bad = consume(tx, tp, gi, b.cfg.ConsumeMax)
	})
	if !ok {
		st.misses++
		return
	}
	st.consumes++
	st.consumed += uint64(consumed)
	st.skipped += uint64(skipped)
	st.badSum += uint64(bad)
}

func (b *B) opAck(th *stm.Thread, st *threadStats, r *prng.R, id uint64) {
	gi := r.Intn(b.cfg.Groups)
	var acked int
	var ok bool
	th.Atomic(func(tx *stm.Tx) {
		acked, ok = 0, false // retry-safe
		kb := b.makeKey(tx, id)
		tp, found := b.broker.topic(tx, kb, b.cfg.KeyWords)
		if !found {
			return
		}
		ok = true
		acked = ack(tx, tp, gi, b.cfg.AckMax)
	})
	if !ok {
		st.misses++
		return
	}
	st.acks++
	st.acked += uint64(acked)
}

func (b *B) opLag(th *stm.Thread, st *threadStats) {
	th.Atomic(func(tx *stm.Tx) {
		b.broker.lagScan(tx, b.cfg.ScanLimit)
	})
	st.lags++
}

// Validate implements tm.Workload. It reconciles three independent
// views of the final state: the per-thread committed-effect counters
// against the topic sequences, every retained message's checksum
// against its payload, and each consumer group's ledger — acked +
// in-flight + skipped == cursor ≤ head, so consumed + in-flight +
// skipped + remaining == published holds per (topic, group).
func (b *B) Validate(trt *tm.Runtime) error {
	rt := trt.Unwrap()
	th := rt.Thread(0)
	th.EnterPhase(tm.PhaseScan) // walking topics is read-mostly scan work
	c := b.cfg

	var pub, drops, consumed, skipped, acked, badSum, misses uint64
	for i := range b.perTh {
		st := &b.perTh[i]
		pub += st.published
		drops += st.drops
		consumed += st.consumed
		skipped += st.skipped
		acked += st.acked
		badSum += st.badSum
		misses += st.misses
	}
	pub += b.preloadPub
	drops += b.preloadDrops
	if badSum != 0 {
		return fmt.Errorf("tmmsg: %d consumed messages failed their checksum", badSum)
	}
	if misses != 0 {
		return fmt.Errorf("tmmsg: %d operations missed a topic Setup created", misses)
	}

	var topics int
	th.Atomic(func(tx *stm.Tx) { topics = b.broker.Topics(tx) })
	if topics != c.Topics {
		return fmt.Errorf("tmmsg: index holds %d topics, want %d", topics, c.Topics)
	}

	// Pass 1: collect every topic record, then verify each in its own
	// transaction (bounded read sets).
	var tps []mem.Addr
	th.Atomic(func(tx *stm.Tx) {
		tps = tps[:0] // retry-safe: judge only the committed attempt
		txlib.HTForEach(tx, b.broker.index, txlib.TM, func(_ mem.Addr, _ int, data uint64) bool {
			tps = append(tps, mem.Addr(data))
			return true
		})
	})
	if len(tps) != topics {
		return fmt.Errorf("tmmsg: index walk found %d topics, size says %d", len(tps), topics)
	}

	var headSum, tailSum, grpConsumed, grpSkipped, grpAcked uint64
	for _, tp := range tps {
		var err error
		th.Atomic(func(tx *stm.Tx) {
			err = b.validateTopic(tx, tp, &headSum, &tailSum, &grpConsumed, &grpSkipped, &grpAcked)
		})
		if err != nil {
			return err
		}
	}

	if headSum != pub {
		return fmt.Errorf("tmmsg: topics hold %d published sequences, threads committed %d", headSum, pub)
	}
	if tailSum != drops {
		return fmt.Errorf("tmmsg: topics dropped %d sequences, threads observed %d", tailSum, drops)
	}
	if grpConsumed != consumed {
		return fmt.Errorf("tmmsg: group ledgers consumed %d, threads committed %d", grpConsumed, consumed)
	}
	if grpSkipped != skipped {
		return fmt.Errorf("tmmsg: group ledgers skipped %d, threads observed %d", grpSkipped, skipped)
	}
	if grpAcked != acked {
		return fmt.Errorf("tmmsg: group ledgers acked %d, threads committed %d", grpAcked, acked)
	}
	return nil
}

// validateTopic checks one topic in a single transaction: retention
// bounds, every retained message's sequence and checksum, and each
// consumer group's cursor ledger. The aggregate sums are reset-safe
// because the caller reruns the whole closure on retry. The visible
// *uint64 accumulators are only advanced on values read in this
// attempt; single-threaded validation transactions do not retry, and
// the per-attempt deltas are recomputed from scratch each time.
func (b *B) validateTopic(tx *stm.Tx, tp mem.Addr,
	headSum, tailSum, grpConsumed, grpSkipped, grpAcked *uint64) error {
	c := b.cfg
	head := tx.Load(tp+tpHead, txlib.TM)
	tail := tx.Load(tp+tpTail, txlib.TM)
	if tail > head {
		return fmt.Errorf("tmmsg: topic %d tail %d beyond head %d", tp, tail, head)
	}
	if head-tail > uint64(c.RingCap) {
		return fmt.Errorf("tmmsg: topic %d retains %d messages, ring holds %d", tp, head-tail, c.RingCap)
	}
	ring := txlib.RingSnapshot(tx, tx.LoadAddr(tp+tpRing, txlib.TM), txlib.TM)
	for seq := tail; seq < head; seq++ {
		m := mem.Addr(ring.Get(tx, seq, txlib.TM))
		if !readMessage(tx, m, seq) {
			return fmt.Errorf("tmmsg: topic %d message %d fails its sequence/checksum", tp, seq)
		}
	}
	if n := int(tx.Load(tp+tpNGroups, txlib.TM)); n != c.Groups {
		return fmt.Errorf("tmmsg: topic %d holds %d groups, want %d", tp, n, c.Groups)
	}
	for gi := 0; gi < c.Groups; gi++ {
		g := group(tx, tp, gi)
		cursor := tx.Load(g+grCursor, txlib.TM)
		inflight := tx.Load(g+grInflight, txlib.TM)
		ackedG := tx.Load(g+grAcked, txlib.TM)
		skippedG := tx.Load(g+grSkipped, txlib.TM)
		if cursor > head {
			return fmt.Errorf("tmmsg: topic %d group %d cursor %d beyond head %d", tp, gi, cursor, head)
		}
		if ackedG+inflight+skippedG != cursor {
			return fmt.Errorf("tmmsg: topic %d group %d ledger %d+%d+%d != cursor %d (remaining %d of %d published)",
				tp, gi, ackedG, inflight, skippedG, cursor, head-cursor, head)
		}
		*grpConsumed += ackedG + inflight
		*grpSkipped += skippedG
		*grpAcked += ackedG
	}
	*headSum += head
	*tailSum += tail
	return nil
}
