package main

import (
	"os"
	"time"

	"repro/internal/capture"
	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/txlib"
	"repro/internal/wal"
	"repro/tm"
	"repro/tm/serve"
)

// Probes are single-thread micro-loops against one layer's exported
// API, mirroring BenchmarkBarrier* in the root bench_test.go: each runs
// sz.probeIters operations sz.probeReps times and reports the median
// ns per operation. They run in traced runs only.

// probeSink keeps the compiler from discarding probe loads.
var probeSink uint64

// probeTxnOps is the operations per transaction of the barrier probes,
// so per-transaction log sizes stay realistic.
const probeTxnOps = 512

func probeRuntime(p tm.Profile) (*tm.Runtime, *tm.Thread, tm.Struct) {
	rt := tm.Open(append(p.Options(), tm.WithMemory(tm.MemConfig{
		GlobalWords: 1 << 12, HeapWords: 1 << 18, StackWords: 1 << 10, MaxThreads: 2,
	}))...)
	return rt, rt.Thread(0), rt.AllocGlobal(64)
}

// timeLoop reports the median ns per operation of reps runs of body,
// which performs iters operations.
func timeLoop(sz sizes, body func(iters int)) float64 {
	vs := make([]float64, sz.probeReps)
	for r := range vs {
		t0 := nowNs()
		body(sz.probeIters)
		vs[r] = float64(nowNs()-t0) / float64(sz.probeIters)
	}
	return median(vs)
}

// barrierProbe times op inside transactions of probeTxnOps operations;
// prep runs at the start of each transaction and returns the block the
// loop accesses.
func barrierProbe(sz sizes, p tm.Profile, prep func(tx *tm.Tx, g tm.Struct) tm.Struct, op func(tx *tm.Tx, base tm.Struct, i int)) float64 {
	rt, th, g := probeRuntime(p)
	defer rt.Close()
	return timeLoop(sz, func(iters int) {
		for i := 0; i < iters; {
			th.Atomic(func(tx *tm.Tx) {
				base := prep(tx, g)
				for j := 0; j < probeTxnOps && i < iters; j++ {
					op(tx, base, i)
					i++
				}
			})
		}
	})
}

// probeCosts are the probe results the ledgers multiply counts by.
type probeCosts struct {
	txnEmpty, readFull, writeFull       float64
	readElHeap, writeElHeap             float64
	readElStack, writeElStack, readMiss float64
	admit, walAppendAckNs               float64
}

func runProbes(o options, sz sizes, L map[string]float64) probeCosts {
	var pc probeCosts
	load := func(tx *tm.Tx, base tm.Struct, i int) { probeSink += base.Word(i & 63).Load(tx) }
	store := func(tx *tm.Tx, base tm.Struct, i int) { base.Word(i&63).Store(tx, uint64(i)) }
	global := func(tx *tm.Tx, g tm.Struct) tm.Struct { return g }
	// A block allocated by the running transaction: captured heap. The
	// previous transaction's block is recycled so the arena never grows.
	freshHeap := func() func(tx *tm.Tx, g tm.Struct) tm.Struct {
		var cur tm.Struct
		return func(tx *tm.Tx, g tm.Struct) tm.Struct {
			if !cur.IsNil() {
				tx.Free(cur)
			}
			cur = tx.Alloc(64)
			return cur
		}
	}
	stack := func(tx *tm.Tx, g tm.Struct) tm.Struct { return tx.StackAlloc(64) }
	// A shared word read while the allocation log holds four blocks: the
	// capture check runs and misses.
	loadedLog := func() func(tx *tm.Tx, g tm.Struct) tm.Struct {
		var scratch [4]tm.Struct
		return func(tx *tm.Tx, g tm.Struct) tm.Struct {
			for j := range scratch {
				if !scratch[j].IsNil() {
					tx.Free(scratch[j])
				}
				scratch[j] = tx.Alloc(8)
			}
			return g
		}
	}

	// internal/stm
	{
		rt, th, _ := probeRuntime(captureProfile())
		pc.txnEmpty = timeLoop(sz, func(iters int) {
			for i := 0; i < iters; i++ {
				th.Atomic(func(tx *tm.Tx) {})
			}
		})
		rt.Close()
	}
	pc.readFull = barrierProbe(sz, baselineProfile(), global, load)
	pc.writeFull = barrierProbe(sz, baselineProfile().With(tm.WithoutWAWFilter()), global, store)
	pc.readElHeap = barrierProbe(sz, captureProfile(), freshHeap(), load)
	pc.writeElHeap = barrierProbe(sz, captureProfile(), freshHeap(), store)
	pc.readElStack = barrierProbe(sz, captureProfile(), stack, load)
	pc.writeElStack = barrierProbe(sz, captureProfile(), stack, store)
	pc.readMiss = barrierProbe(sz, captureProfile(), loadedLog(), load)
	L["stm.txn_empty_ns"] = pc.txnEmpty
	L["stm.read_full_ns"] = pc.readFull
	L["stm.write_full_ns"] = pc.writeFull
	L["stm.read_elided_heap_ns"] = pc.readElHeap
	L["stm.write_elided_heap_ns"] = pc.writeElHeap
	L["stm.read_elided_stack_ns"] = pc.readElStack
	L["stm.write_elided_stack_ns"] = pc.writeElStack
	L["stm.read_miss_ns"] = pc.readMiss

	// internal/capture: the tree log holding eight 16-word ranges.
	{
		log := capture.New(capture.KindTree)
		L["capture.insert_ns"] = timeLoop(sz, func(iters int) {
			for i := 0; i < iters; {
				log.Clear()
				for j := 0; j < 8 && i < iters; j++ {
					a := mem.Addr(1024 + 32*j)
					log.Insert(a, a+16)
					i++
				}
			}
		})
		log.Clear()
		for j := 0; j < 8; j++ {
			a := mem.Addr(1024 + 32*j)
			log.Insert(a, a+16)
		}
		hits, misses := 0, 0
		L["capture.contains_hit_ns"] = timeLoop(sz, func(iters int) {
			for i := 0; i < iters; i++ {
				if log.Contains(mem.Addr(1024+32*(i&7)+(i&15)), 1) {
					hits++
				}
			}
		})
		L["capture.contains_miss_ns"] = timeLoop(sz, func(iters int) {
			for i := 0; i < iters; i++ {
				if log.Contains(mem.Addr(1024+32*(i&7)+16+(i&15)), 1) {
					misses++
				}
			}
		})
		if hits != sz.probeIters*sz.probeReps || misses != 0 {
			fatalf("capture probe: %d hits, %d false hits", hits, misses)
		}
	}

	// internal/mem: a transactional Alloc+Free pair.
	L["mem.alloc_free_ns"] = barrierProbe(sz, captureProfile(), global,
		func(tx *tm.Tx, base tm.Struct, i int) { tx.Free(tx.Alloc(8)) })

	// internal/txlib: a 1024-bucket hashtable holding 1024 one-word keys;
	// probe keys live in a stack slot, as the tmkv store builds them.
	{
		rt, th, _ := probeRuntime(captureProfile())
		var ht mem.Addr
		key := func(tx *stm.Tx, k uint64) mem.Addr {
			slot := tx.StackAlloc(1)
			tx.Store(slot, k, stm.AccStack)
			return slot
		}
		th.Atomic(func(tx *tm.Tx) {
			ht = txlib.NewHashtable(tx.Unwrap(), 1024)
			for k := uint64(1); k <= 1024; k++ {
				txlib.HTInsertIfAbsent(tx.Unwrap(), ht, key(tx.Unwrap(), k), 1, k, txlib.TM, stm.AccStack)
			}
		})
		inTxns := func(iters int, op func(tx *stm.Tx, i int)) {
			for i := 0; i < iters; {
				th.Atomic(func(ttx *tm.Tx) {
					for j := 0; j < probeTxnOps/8 && i < iters; j++ {
						op(ttx.Unwrap(), i)
						i++
					}
				})
			}
		}
		L["txlib.ht_get_ns"] = timeLoop(sz, func(iters int) {
			inTxns(iters, func(tx *stm.Tx, i int) {
				v, _ := txlib.HTGet(tx, ht, key(tx, uint64(i&1023)+1), 1, txlib.TM, stm.AccStack)
				probeSink += v
			})
		})
		L["txlib.ht_insert_remove_ns"] = timeLoop(sz, func(iters int) {
			inTxns(iters, func(tx *stm.Tx, i int) {
				k := key(tx, uint64(i&1023)+5000)
				txlib.HTInsertIfAbsent(tx, ht, k, 1, 1, txlib.TM, stm.AccStack)
				txlib.HTRemove(tx, ht, k, 1, txlib.TM, stm.AccStack)
			})
		})
		rt.Close()
	}

	// tm.Batcher: Admit of a one-key item into a width-8 batch; the
	// Flush that empties the batch is outside the timed calls.
	{
		rt, th, _ := probeRuntime(captureProfile())
		b := tm.NewBatcher(th, mergeWidth, 2)
		items := make([]tm.BatchItem, mergeWidth)
		for j := range items {
			items[j] = tm.BatchItem{
				Footprint: tm.Footprint{Reads: []uint64{uint64(j)}},
				Apply:     func(*tm.Tx, tm.Struct) bool { return true },
			}
		}
		vs := make([]float64, sz.probeReps)
		for r := range vs {
			var ns int64
			for i := 0; i < sz.probeIters/8; i += mergeWidth {
				t0 := nowNs()
				for j := range items {
					b.Admit(items[j])
				}
				ns += nowNs() - t0
				b.Flush()
			}
			vs[r] = float64(ns) / float64(sz.probeIters/8)
		}
		pc.admit = median(vs)
		L["batcher.admit_ns"] = pc.admit
		rt.Close()
	}

	// tm/serve: the request codec round trip.
	{
		var buf []byte
		L["serve.codec_ns"] = timeLoop(sz, func(iters int) {
			for i := 0; i < iters; i++ {
				buf = serve.AppendRequest(buf[:0], serve.Request{Op: uint8(i & 3), Client: 7, Key: uint64(i), Arg: 16})
				r, _, err := serve.DecodeRequest(buf)
				if err != nil {
					fatalf("codec probe: %v", err)
				}
				probeSink += r.Key
			}
		})
	}

	// internal/wal: Append → Ack.Wait of a 64-word commit record, with
	// page-cache writes and with fsync. The fsync number is this
	// sandbox's, not a device's.
	walProbe := func(noFsync bool) float64 {
		dir := scratchDir(o.durdir, "walprobe-")
		defer os.RemoveAll(dir)
		log, err := wal.OpenLog(dir, 0, 0, wal.Options{NoFsync: noFsync})
		if err != nil {
			fatalf("wal probe: %v", err)
		}
		vals := make([]uint64, 64)
		rec := &wal.Record{Kind: wal.KindCommit, Spans: []wal.Span{{Addr: 4096, Vals: vals}}}
		n := max(1, sz.walRecords)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			rec.Version = uint64(i)
			ack, err := log.Append(rec)
			if err == nil {
				err = ack.Wait()
			}
			if err != nil {
				fatalf("wal probe append: %v", err)
			}
		}
		us := float64(time.Since(t0).Microseconds()) / float64(n)
		if err := log.Close(); err != nil {
			fatalf("wal probe close: %v", err)
		}
		return us
	}
	L["wal.append_ack_us"] = walProbe(true)
	L["wal.fsync_commit_us"] = walProbe(false)
	pc.walAppendAckNs = L["wal.append_ack_us"] * 1e3
	return pc
}
