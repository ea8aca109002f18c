package tmmsg

// Served front-end adapter: exposes the tmmsg broker as a
// serve.Backend ("srv-tmmsg"). It is the adapter that exercises the
// Batcher's phase discipline: publish requests carry tm.PhasePublish
// and merge with each other (distinct topics), consume/ack requests
// carry tm.PhaseCursor and merge per (topic, group), backlog scans
// carry tm.PhaseScan, and distinct kinds never share a merged
// transaction — a publish-shaped batch runs on the capture-checking
// engine, a cursor-shaped one on the definitely-shared bypass, a
// scan-shaped one on the read-mostly engine.

import (
	"repro/internal/prng"
	"repro/internal/scenarios/dist"
	"repro/tm"
	"repro/tm/serve"
)

// Request opcodes of the srv-tmmsg backend (serve.Request.Op).
const (
	OpPublish = 0 // publish Arg messages to topic Key
	OpConsume = 1 // consume up to ConsumeMax from (topic Key, group Arg)
	OpAck     = 2 // ack up to AckMax on (topic Key, group Arg)
	OpLag     = 3 // backlog scan over up to ScanLimit topics (exclusive)
)

// Reply layout (serve.Reply.Words).
const (
	RepA       = 0 // publish: messages linked · consume: delivered · ack: acked · lag: backlog
	RepB       = 1 // publish: retention drops · consume: skipped<<8|badsum
	ReplyWords = 2
)

// MsgBackend adapts one tmmsg broker to the serving front-end.
type MsgBackend struct {
	cfg    Config
	broker Broker
	zipf   *dist.Zipf
}

// ServeMix returns the request mix the registered "srv-tmmsg" backend
// uses: the balanced blend of Mixed under the served opcode set.
func ServeMix() Config {
	c := Mixed()
	c.Name = "srv-tmmsg"
	return c
}

func init() {
	serve.Register("srv-tmmsg",
		"served message broker: publish merges under the publish phase, consume/ack under cursor",
		func() serve.Backend { return NewMsgBackend(ServeMix()) })
}

// NewMsgBackend creates a backend over cfg (the Ops field is unused:
// the client population decides how many requests to issue). Exported
// with a Config parameter so differential tests can pin custom mixes.
func NewMsgBackend(cfg Config) *MsgBackend {
	New(cfg) // reuse the workload's validation panics
	m := &MsgBackend{cfg: cfg}
	if cfg.Zipf {
		m.zipf = dist.NewZipf(cfg.Topics, cfg.Theta)
	}
	return m
}

// Footprint keys: topics and (topic, group) cursors live in one
// namespace, separated by the low bit. Publish writes its topic;
// consume writes its cursor and reads its topic (it loads the head
// sequence and ring), ack writes only its cursor.
func topicKey(id uint64) uint64             { return id << 1 }
func cursorKey(id uint64, gi uint64) uint64 { return (id<<8|gi)<<1 | 1 }

// MemConfig implements serve.Backend: the retained rings plus worst-
// case churn of every request publishing a full batch.
func (m *MsgBackend) MemConfig(workers, totalRequests int) tm.MemConfig {
	c := m.cfg
	mc := c.memConfig(c.Topics*c.PreloadMsgs + totalRequests*c.MaxBatch)
	if mc.MaxThreads < workers {
		mc.MaxThreads = workers
	}
	return mc
}

// Setup implements serve.Backend: create the broker and topics, then
// preload PreloadMsgs messages per topic, like the workload's Setup,
// inside thread 0's Exclusive scope.
func (m *MsgBackend) Setup(trt *tm.Runtime) {
	th := trt.Unwrap().Thread(0)
	th.Exclusive(func() { m.broker, _, _ = m.cfg.setup(th) })
}

// ReplyWords implements serve.Backend.
func (m *MsgBackend) ReplyWords() int { return ReplyWords }

// NewRequest implements serve.Backend: request i of the deterministic
// stream for seed, drawn from the configured mix, topic distribution,
// and group/batch ranges.
func (m *MsgBackend) NewRequest(seed, i uint64) serve.Request {
	r := prng.New(seed + (i+1)*0x2545F4914F6CDD1D)
	th := m.cfg.opThresholds()
	op := r.Intn(100)
	var id uint64
	if m.zipf != nil {
		id = dist.RankToKey(m.zipf.Sample(r), m.cfg.Topics)
	} else {
		id = dist.RankToKey(r.Intn(m.cfg.Topics), m.cfg.Topics)
	}
	switch {
	case op < th[0]:
		return serve.Request{Op: OpPublish, Key: id, Arg: uint64(1 + r.Intn(m.cfg.MaxBatch))}
	case op < th[1]:
		return serve.Request{Op: OpConsume, Key: id, Arg: uint64(r.Intn(m.cfg.Groups))}
	case op < th[2]:
		return serve.Request{Op: OpAck, Key: id, Arg: uint64(r.Intn(m.cfg.Groups))}
	default:
		return serve.Request{Op: OpLag}
	}
}

// Item implements serve.Backend. A request on a topic Setup did not
// create refuses (Apply returns false) — with the registered configs
// that never happens, since Setup creates every topic.
func (m *MsgBackend) Item(req serve.Request) tm.BatchItem {
	c := m.cfg
	id := req.Key
	switch req.Op {
	case OpPublish:
		n := int(req.Arg)
		if n < 1 || n > c.MaxBatch {
			n = 1
		}
		return tm.BatchItem{
			Phase:     tm.PhasePublish,
			Footprint: tm.Footprint{Writes: []uint64{topicKey(id)}},
			Apply: func(ttx *tm.Tx, reply tm.Struct) bool {
				tx := ttx.Unwrap()
				kb := dist.StackKey(tx, id, c.KeyWords)
				tp, found := m.broker.topic(tx, kb, c.KeyWords)
				if !found {
					return false
				}
				pub, drops := publishN(tx, c, tp, id, n)
				reply.Word(RepA).Store(ttx, pub)
				reply.Word(RepB).Store(ttx, drops)
				return true
			},
		}
	case OpConsume:
		gi := int(req.Arg) % c.Groups
		return tm.BatchItem{
			Phase: tm.PhaseCursor,
			Footprint: tm.Footprint{
				Reads:  []uint64{topicKey(id)},
				Writes: []uint64{cursorKey(id, uint64(gi))},
			},
			Apply: func(ttx *tm.Tx, reply tm.Struct) bool {
				tx := ttx.Unwrap()
				kb := dist.StackKey(tx, id, c.KeyWords)
				tp, found := m.broker.topic(tx, kb, c.KeyWords)
				if !found {
					return false
				}
				consumed, skipped, bad := consume(tx, tp, gi, c.ConsumeMax)
				reply.Word(RepA).Store(ttx, uint64(consumed))
				reply.Word(RepB).Store(ttx, uint64(skipped)<<8|uint64(bad))
				return true
			},
		}
	case OpAck:
		gi := int(req.Arg) % c.Groups
		return tm.BatchItem{
			Phase:     tm.PhaseCursor,
			Footprint: tm.Footprint{Writes: []uint64{cursorKey(id, uint64(gi))}},
			Apply: func(ttx *tm.Tx, reply tm.Struct) bool {
				tx := ttx.Unwrap()
				kb := dist.StackKey(tx, id, c.KeyWords)
				tp, found := m.broker.topic(tx, kb, c.KeyWords)
				if !found {
					return false
				}
				reply.Word(RepA).Store(ttx, uint64(ack(tx, tp, gi, c.AckMax)))
				return true
			},
		}
	default: // OpLag
		return tm.BatchItem{
			Phase:     tm.PhaseScan,
			Exclusive: true,
			Apply: func(ttx *tm.Tx, reply tm.Struct) bool {
				reply.Word(RepA).Store(ttx, m.broker.lagScan(ttx.Unwrap(), c.ScanLimit))
				return true
			},
		}
	}
}
