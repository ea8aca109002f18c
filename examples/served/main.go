// Served: application-side transaction merging on the public API.
//
//	go run ./examples/served
//
// A miniature key-value server: a worker pool (tm/serve.Server) drains
// an open-loop client population, and each worker merges compatible
// requests — footprints on distinct keys, same phase — into ONE
// transaction (tm.Batcher). The win is the paper's captured-memory
// story applied to serving: a merged transaction assembles every
// record and every reply in memory captured by that transaction (fresh
// allocations, the batch's stack block), so the runtime elides those
// barriers and the per-request shared-memory cost shrinks to the
// actual index update. The printed report shows the merge ratio the
// queue sustained, the p95 service time measured from each request's
// scheduled arrival, and the share of barriers elided; the run fails
// if merged reply assembly elided nothing, because that would mean
// merging stopped paying for itself.
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/tm"
	"repro/tm/serve"
)

const (
	keys         = 1024
	payloadWords = 6
	recSize      = 1 + payloadWords // [0] checksum, [1..] payload
	opGet        = 0
	opPut        = 1
	requests     = 20000
)

// kv is a minimal serve.Backend: one pointer slot per key, records
// rebuilt in captured memory on every put.
type kv struct {
	slots tm.Struct
}

func (k *kv) MemConfig(workers, totalRequests int) tm.MemConfig {
	return tm.MemConfig{
		GlobalWords: keys + 8,
		// Every put allocates a fresh record; overwritten ones recycle
		// through limbo only at quiescence, so size for the full churn.
		HeapWords:  1 << 20,
		StackWords: 1 << 10,
		MaxThreads: workers,
	}
}

func (k *kv) Setup(rt *tm.Runtime) { k.slots = rt.AllocGlobal(keys) }

func (k *kv) ReplyWords() int { return 2 }

// NewRequest is request i of the deterministic stream: three puts to
// every get, keys scattered by a Weyl sequence.
func (k *kv) NewRequest(seed, i uint64) serve.Request {
	h := (seed + i) * 0x9E3779B97F4A7C15
	op := uint8(opPut)
	if i%4 == 3 {
		op = opGet
	}
	return serve.Request{Op: op, Key: h >> 54 % keys, Arg: h}
}

// Item declares the request's footprint (its key) and the transactional
// work. Puts build the record with fresh-provenance stores — captured,
// elided; gets verify the checksum through full barriers.
func (k *kv) Item(req serve.Request) tm.BatchItem {
	key := int(req.Key % keys)
	if req.Op == opGet {
		return tm.BatchItem{
			Footprint: tm.Footprint{Reads: []uint64{uint64(key)}},
			Apply: func(tx *tm.Tx, reply tm.Struct) bool {
				rec := k.slots.Ptr(key).Load(tx)
				if rec.IsNil() {
					return true // miss: status word stays 0
				}
				var sum uint64
				for j := 0; j < payloadWords; j++ {
					sum += rec.Word(1 + j).Load(tx)
				}
				if sum != rec.Word(0).Load(tx) {
					fmt.Fprintln(os.Stderr, "served: checksum mismatch")
					os.Exit(1)
				}
				reply.Word(0).Store(tx, 1)
				reply.Word(1).Store(tx, sum)
				return true
			},
		}
	}
	return tm.BatchItem{
		Footprint: tm.Footprint{Writes: []uint64{uint64(key)}},
		Apply: func(tx *tm.Tx, reply tm.Struct) bool {
			rec := tx.Alloc(recSize) // captured: fresh provenance
			var sum uint64
			for j := 0; j < payloadWords; j++ {
				w := req.Arg*31 + uint64(j)
				rec.Word(1+j).Store(tx, w) // elided store
				sum += w
			}
			rec.Word(0).Store(tx, sum)
			if old := k.slots.Ptr(key).Load(tx); !old.IsNil() {
				tx.Free(old)
			}
			k.slots.Ptr(key).Store(tx, rec)
			reply.Word(0).Store(tx, 1)
			reply.Word(1).Store(tx, sum)
			return true
		},
	}
}

func main() {
	be := &kv{}
	srv := serve.NewServer(be, serve.Config{
		Workers:    4,
		MergeWidth: 8,
		Requests:   requests,
		Options: []tm.Option{
			tm.WithName("served"),
			tm.WithRuntimeCapture(tm.StackAndHeap, tm.StackAndHeap),
			tm.WithLogKind(tm.LogTree),
		},
	})
	srv.Start()
	res := srv.RunOpenLoop(serve.OpenLoop{Clients: 8, Requests: requests, Seed: 42})
	srv.Stop()

	bs := srv.BatchStats()
	lat := append([]int64(nil), res.LatenciesNs...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p95 := time.Duration(lat[(len(lat)*95+99)/100-1])
	s := srv.Runtime().Snapshot().Stats
	total := s.ReadTotal + s.WriteTotal
	elided := s.ReadElided() + s.WriteElided()

	fmt.Printf("served %d requests at %.0f req/s (%d workers, merge width 8)\n",
		res.Requests, res.AchievedRPS(), 4)
	fmt.Printf("merge ratio %.2fx  (%d requests in %d transactions, %d merged batches, %d fallbacks)\n",
		bs.MergeRatio(), bs.Requests, bs.Txns, bs.Merged, bs.Fallbacks)
	fmt.Printf("p95 service time %v  (from scheduled arrival)\n", p95.Round(time.Microsecond))
	fmt.Printf("%d of %d barriers elided (%.1f%%), %d stack-captured writes\n",
		elided, total, 100*float64(elided)/float64(total), s.WriteElStack)

	if bs.Merged == 0 {
		fmt.Fprintln(os.Stderr, "served: no batch ever merged")
		os.Exit(1)
	}
	if s.WriteElStack == 0 {
		fmt.Fprintln(os.Stderr, "served: merged reply assembly elided nothing")
		os.Exit(1)
	}
}
