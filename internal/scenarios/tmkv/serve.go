package tmkv

// Served front-end adapter: exposes the tmkv store as a serve.Backend
// ("srv-tmkv", and the phase-tagged read-heavy "srv-tmkv-read"),
// translating compact wire requests into batchable transactional
// operations. Point ops declare the key id as their footprint, so a
// batch of requests on distinct keys merges into one transaction;
// whole-store scans are exclusive.

import (
	"repro/internal/prng"
	"repro/internal/scenarios/dist"
	"repro/internal/txlib"
	"repro/tm"
	"repro/tm/serve"
)

// Request opcodes of the srv-tmkv backend (serve.Request.Op).
const (
	OpRead   = 0 // checksum-verified read of Key's newest version
	OpUpsert = 1 // new version of Key (insert if absent)
	OpInsert = 2 // insert Key (no-op reply if present)
	OpDelete = 3 // remove Key and every version
	OpScan   = 4 // visit up to Arg keys (exclusive: never merged)
)

// Reply layout (serve.Reply.Words).
const (
	RepStatus  = 0 // per-op status code (see the Item cases)
	RepInfo    = 1 // op-specific payload: words read, version written, …
	ReplyWords = 2
)

// Read statuses.
const (
	ReadMiss   = 0
	ReadOK     = 1
	ReadBadSum = 2 // checksum mismatch: must never happen
)

// KVBackend adapts one tmkv store to the serving front-end.
type KVBackend struct {
	cfg   Config
	store Store
	zipf  *dist.Zipf
}

// ServeMix returns the request mix the registered "srv-tmkv" backend
// uses: the OLTP blend of Mixed under the served opcode set.
func ServeMix() Config {
	c := Mixed()
	c.Name = "srv-tmkv"
	return c
}

// ServeReadMix returns the request mix of the registered
// "srv-tmkv-read" backend: the ReadHeavy blend with phase tagging on,
// so read batches merge under the scan regime (the read-mostly engine
// on a phased profile) and the rare mutations under publish. The mix
// is skewed enough (84% scan-shaped) that same-phase runs stay long
// and merging survives the phase split.
func ServeReadMix() Config {
	c := ReadHeavy()
	c.Name = "srv-tmkv-read"
	c.Phased = true
	return c
}

func init() {
	serve.Register("srv-tmkv", "served KV/object store: mixed OLTP blend, footprint = key id",
		func() serve.Backend { return NewKVBackend(ServeMix()) })
	serve.Register("srv-tmkv-read",
		"served KV read heavy: scan-phased read batches for the read-mostly engine",
		func() serve.Backend { return NewKVBackend(ServeReadMix()) })
}

// NewKVBackend creates a backend over cfg (the Ops field is unused:
// the client population decides how many requests to issue). Exported
// with a Config parameter so differential tests can pin custom mixes.
func NewKVBackend(cfg Config) *KVBackend {
	New(cfg) // reuse the workload's validation panics
	k := &KVBackend{cfg: cfg}
	if cfg.Zipf {
		k.zipf = dist.NewZipf(cfg.Keys, cfg.Theta)
	}
	return k
}

// MemConfig implements serve.Backend: the workload's worst-case live
// set plus one version build of churn per expected request (deleted
// and trimmed versions recycle through limbo lists only at quiescence,
// which a busy server may never reach).
func (k *KVBackend) MemConfig(workers, totalRequests int) tm.MemConfig {
	mc := k.cfg.memConfig(totalRequests)
	if mc.MaxThreads < workers {
		mc.MaxThreads = workers
	}
	return mc
}

// Setup implements serve.Backend: create the store and preload
// PreloadPct of the key space, exactly like the workload's Setup,
// inside thread 0's Exclusive scope.
func (k *KVBackend) Setup(trt *tm.Runtime) {
	th := trt.Unwrap().Thread(0)
	th.Exclusive(func() { k.store, _ = k.cfg.setup(th) })
}

// ReplyWords implements serve.Backend.
func (k *KVBackend) ReplyWords() int { return ReplyWords }

// NewRequest implements serve.Backend: request i of the deterministic
// stream for seed, drawn from the configured mix and key distribution.
func (k *KVBackend) NewRequest(seed, i uint64) serve.Request {
	r := prng.New(seed + (i+1)*0x2545F4914F6CDD1D)
	th := k.cfg.opThresholds()
	op := r.Intn(100)
	var id uint64
	if k.zipf != nil {
		id = dist.RankToKey(k.zipf.Sample(r), k.cfg.Keys)
	} else {
		id = dist.RankToKey(r.Intn(k.cfg.Keys), k.cfg.Keys)
	}
	switch {
	case op < th[0]:
		return serve.Request{Op: OpRead, Key: id}
	case op < th[1]:
		return serve.Request{Op: OpUpsert, Key: id}
	case op < th[2]:
		return serve.Request{Op: OpInsert, Key: id}
	case op < th[3]:
		return serve.Request{Op: OpDelete, Key: id}
	default:
		return serve.Request{Op: OpScan, Arg: uint64(k.cfg.ScanLimit)}
	}
}

// Item implements serve.Backend. Requests never refuse (no Apply
// returns false): a missing key is an application-level miss reported
// in the status word, so merged batches of tmkv requests only fall
// back on engine-level conflicts, never by construction.
func (k *KVBackend) Item(req serve.Request) tm.BatchItem {
	c := &k.cfg // by pointer: the Apply closures must not each copy the Config to the heap
	id := req.Key
	// Phase tags are opt-in per mix (Config.Phased): they buy per-batch
	// engine specialization at the cost of splitting merged batches by
	// regime.
	phase := func(p tm.Phase) tm.Phase {
		if c.Phased {
			return p
		}
		return ""
	}
	switch req.Op {
	case OpUpsert:
		return tm.BatchItem{
			Phase:     phase(tm.PhasePublish),
			Footprint: tm.Footprint{Writes: []uint64{id}},
			Apply: func(ttx *tm.Tx, reply tm.Struct) bool {
				tx := ttx.Unwrap()
				kb := dist.StackKey(tx, id, c.KeyWords)
				if kr, ok := k.store.lookup(tx, kb, c.KeyWords); ok {
					version := tx.Load(kr+krLatest, txlib.TM) + 1
					stage, words := c.stageValue(tx, id, version)
					k.store.update(tx, kr, stage, words, c.MaxVersions)
					tx.Free(stage)
					reply.Word(RepStatus).Store(ttx, 1)
					reply.Word(RepInfo).Store(ttx, version)
				} else {
					stage, words := c.stageValue(tx, id, 1)
					k.store.insert(tx, kb, c.KeyWords, stage, words)
					tx.Free(stage)
					reply.Word(RepStatus).Store(ttx, 2)
					reply.Word(RepInfo).Store(ttx, 1)
				}
				return true
			},
		}
	case OpInsert:
		return tm.BatchItem{
			Phase:     phase(tm.PhasePublish),
			Footprint: tm.Footprint{Writes: []uint64{id}},
			Apply: func(ttx *tm.Tx, reply tm.Struct) bool {
				tx := ttx.Unwrap()
				kb := dist.StackKey(tx, id, c.KeyWords)
				stage, words := c.stageValue(tx, id, 1)
				inserted := k.store.insert(tx, kb, c.KeyWords, stage, words)
				tx.Free(stage)
				if inserted {
					reply.Word(RepStatus).Store(ttx, 1)
				}
				return true
			},
		}
	case OpDelete:
		return tm.BatchItem{
			Phase:     phase(tm.PhasePublish),
			Footprint: tm.Footprint{Writes: []uint64{id}},
			Apply: func(ttx *tm.Tx, reply tm.Struct) bool {
				tx := ttx.Unwrap()
				kb := dist.StackKey(tx, id, c.KeyWords)
				if k.store.remove(tx, kb, c.KeyWords) {
					reply.Word(RepStatus).Store(ttx, 1)
				}
				return true
			},
		}
	case OpScan:
		limit := int(req.Arg)
		if limit < 1 {
			limit = 1
		}
		return tm.BatchItem{
			Phase:     phase(tm.PhaseScan),
			Exclusive: true,
			Apply: func(ttx *tm.Tx, reply tm.Struct) bool {
				seen := k.store.scan(ttx.Unwrap(), limit)
				reply.Word(RepStatus).Store(ttx, 1)
				reply.Word(RepInfo).Store(ttx, uint64(seen))
				return true
			},
		}
	default: // OpRead
		return tm.BatchItem{
			Phase:     phase(tm.PhaseScan),
			Footprint: tm.Footprint{Reads: []uint64{id}},
			Apply: func(ttx *tm.Tx, reply tm.Struct) bool {
				tx := ttx.Unwrap()
				kb := dist.StackKey(tx, id, c.KeyWords)
				kr, ok := k.store.lookup(tx, kb, c.KeyWords)
				if !ok {
					reply.Word(RepStatus).Store(ttx, ReadMiss)
					return true
				}
				words, sumOK := k.store.readLatest(tx, kr)
				status := uint64(ReadOK)
				if !sumOK {
					status = ReadBadSum
				}
				reply.Word(RepStatus).Store(ttx, status)
				reply.Word(RepInfo).Store(ttx, uint64(words))
				return true
			},
		}
	}
}
