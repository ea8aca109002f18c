package main

import (
	"fmt"
	"time"

	"repro/internal/scenarios/tmkv"
	"repro/tm"
	"repro/tm/serve"
)

// latencyMetrics reports the closed (or direct) segment latencies:
// median of the repetitions' medians and of their 99th percentiles.
func latencyMetrics(rep *report, segs []*segment) {
	var p50, p99 []float64
	var last latSummary
	for _, s := range segs {
		last = summarize(s.lat())
		p50 = append(p50, last.p50/1e3)
		p99 = append(p99, last.p99/1e3)
	}
	rep.e2e["lat_p50_us"] = median(p50)
	rep.e2e["lat_p99_us"] = median(p99)
	rep.note("latency: %d samples per repetition × %d repetitions; highest supported percentile p%g = %.1f µs (last repetition)",
		last.n, len(segs), last.tailP, last.tailNs/1e3)
}

// account adds a segment's operations to the run's attempted/failed
// counts.
func account(rep *report, s *segment) {
	rep.attempted += s.n
	rep.failed += s.failed
}

// runDirect is the kv-direct workload.
func runDirect(o options, sz sizes, rep *report) *recorder {
	T := threads()
	reqs := buildStream(o.seed, sz.directN)
	var rec *recorder
	reserve := time.Duration(0)
	if o.trace {
		rec = newRecorder(4*sz.directN, directSpanNames...)
		reserve = traceReserve(sz, false)
	}
	b := newBudget(o, sz, reserve)
	// Repetitions alternate capture/baseline in ABBA order (untraced
	// run) or untraced/traced under the capture profile (traced run).
	var capture, other []*segment
	run := func(into *[]*segment, p tm.Profile, rec *recorder) func() {
		return func() {
			rec.reset()
			s := directSegment(p, T, reqs, rec, false)
			account(rep, s)
			*into = append(*into, s)
		}
	}
	if o.trace {
		b.abba(o.seed, run(&capture, captureProfile(), nil), run(&other, captureProfile(), rec))
	} else {
		b.abba(o.seed, run(&capture, captureProfile(), nil), run(&other, baselineProfile(), nil))
	}
	ops := medianBy(capture, (*segment).opsPerSec)
	rep.e2e["setup_s"] = medianBy(capture, func(s *segment) float64 { return float64(s.setupNs) / 1e9 })
	rep.e2e["ops_per_s"] = ops
	latencyMetrics(rep, capture)
	rep.note("kv-direct: T=%d callers, %d requests per repetition, %d capture + %d %s repetitions",
		T, sz.directN, len(capture), len(other), otherKind(o))
	if !o.trace {
		rep.e2e["capture_speedup"] = ops / medianBy(other, (*segment).opsPerSec)
		rep.e2e["peak_rss_mb"] = peakRSSMB()
		return nil
	}

	L := rep.layer
	zeroLayer(L, o.layerNames)
	L["trace.overhead_pct"] = 100 * (ops - medianBy(other, (*segment).opsPerSec)) / ops
	contentionMetrics(L, capture)
	L["mem.space_mb"] = float64(capture[0].spaceWords) * 8 / 1e6

	// Per-opcode Admit+Flush time and be.Item time, from the last traced
	// repetition.
	tr := other[len(other)-1]
	byOp := map[uint8][]float64{}
	var item []float64
	for i := tr.warm; i < tr.n; i++ {
		byOp[reqs[i].Op] = append(byOp[reqs[i].Op], float64(tr.latByReq[i]-tr.itemByReq[i])/1e3)
		item = append(item, float64(tr.itemByReq[i]))
	}
	for op, name := range map[uint8]string{tmkv.OpRead: "read", tmkv.OpUpsert: "upsert", tmkv.OpInsert: "insert", tmkv.OpDelete: "delete", tmkv.OpScan: "scan"} {
		L["tmkv.apply_us."+name] = median(byOp[op])
	}
	L["tmkv.item_ns"] = median(item)

	ref := directSegment(captureProfile(), 1, reqs[:sz.serveN], nil, false)
	account(rep, ref)
	counted := countedPass(rep, reqs[:sz.countedN], L)
	pr := runProbes(o, sz, L)
	kvLedger(L, ledgerIn{
		workers: T, opsPerSec: ops, refNsPerOp: refNsPerOp(ref), counted: counted, countedOps: float64(sz.countedN), probes: pr,
		txnsPerOp: medianBy(capture, txnsPerOp),
	})
	return rec
}

// traceReserve is the part of a traced run's -seconds kept for the
// steps after the repetitions: reference and counted passes, probes,
// and the served workloads' open and one-outstanding segments.
func traceReserve(sz sizes, served bool) time.Duration {
	const probes, nsPerIter = 25, 30
	d := time.Duration(probes*nsPerIter*sz.probeIters*sz.probeReps) + 2*time.Second
	if served {
		d += time.Duration(float64(sz.openN)/sz.openRate*float64(time.Second)) + 2*time.Second
	}
	return d
}

func refNsPerOp(ref *segment) float64 {
	return float64(ref.endNs-ref.startNs) / float64(ref.timedOps())
}

// txnsPerOp is top-level transaction attempts per request.
func txnsPerOp(s *segment) float64 {
	st := s.snap.Stats
	return float64(st.Commits+st.Aborts+st.UserAborts) / float64(s.n)
}

// contentionMetrics reports the lifecycle counters perf mode keeps.
func contentionMetrics(L map[string]float64, segs []*segment) {
	L["stm.aborts_per_commit"] = medianBy(segs, func(s *segment) float64 { return s.snap.Stats.AbortRatio() })
	L["stm.waits_per_commit"] = medianBy(segs, func(s *segment) float64 {
		return float64(s.snap.Stats.Waits) / float64(max(1, s.snap.Stats.Commits))
	})
	L["stm.wait_ns_per_op"] = medianBy(segs, func(s *segment) float64 { return float64(s.snap.Stats.WaitNs) / float64(s.n) })
}

// countedPass runs a reduced-size single-thread direct execution under
// the non-perf capture profile, which keeps the access counters perf
// mode compiles out, and reports accesses per request.
func countedPass(rep *report, reqs []serve.Request, L map[string]float64) tm.Stats {
	s := directSegment(countedProfile(), 1, reqs, nil, false)
	account(rep, s)
	st := s.snap.Stats
	accessMetrics(L, st, float64(s.n))
	return st
}

// accessMetrics reports the counted pass: accesses per operation and
// the share of them the capture analysis elided.
func accessMetrics(L map[string]float64, st tm.Stats, ops float64) {
	L["stm.reads_per_op"] = float64(st.ReadTotal) / ops
	L["stm.writes_per_op"] = float64(st.WriteTotal) / ops
	L["stm.read_elided_share"] = float64(st.ReadElided()) / float64(max(1, st.ReadTotal))
	L["stm.write_elided_share"] = float64(st.WriteElided()) / float64(max(1, st.WriteTotal))
}

// runServed is the kv-serve and kv-serve-durable workloads: the same
// stream, sizes, rate and configuration; the durable one adds the redo
// log and the crash/recover step.
func runServed(o options, sz sizes, rep *report, durable bool) *recorder {
	W := serveWorkers()
	reqs := buildStream(o.seed, max(sz.serveN, sz.openN))
	closedReqs := reqs[:sz.serveN]
	durRoot := ""
	if durable {
		durRoot = o.durdir
	}
	var rec *recorder
	reserve := time.Duration(0)
	if o.trace {
		rec = newRecorder(3*(sz.serveN+sz.openN)+64, servedSpanNames...)
		reserve = traceReserve(sz, true)
	}
	L := rep.layer

	// The reference pass: replies for the gate, direct time per request
	// for serve.overhead_ns_per_op and the ledger.
	ref := directSegment(captureProfile(), 1, closedReqs, nil, true)
	account(rep, ref)

	// One closed segment into *into. The first capture-profile segment of
	// the kind that carries the run's spans (traced if there is one) ends
	// with the space checksum and, on the durable workload, the
	// crash/recover gate, after its timed part; the budget does not count
	// that one-off step.
	b := newBudget(o, sz, reserve)
	var capture, other []*segment
	gated := false
	closed := func(into *[]*segment, p tm.Profile, rec *recorder, mayGate bool) func() {
		return func() {
			rec.reset()
			c := servedCfg{profile: p, memRequests: sz.serveN, durRoot: durRoot, outstanding: sz.outstanding, rec: rec}
			if mayGate && !gated {
				gated = true
				c.wantChecksum = true
				if durable {
					var out map[string]float64
					if o.trace {
						out = L
					}
					c.beforeStop = crashRecover(rep, rec, out)
				}
			}
			s := servedSegment(c, closedReqs)
			b.exclude(time.Duration(s.oneOffNs))
			account(rep, s)
			if W == 1 {
				sameReplies(rep, fmt.Sprintf("closed segment (%s)", p.Name()), s, ref)
			}
			*into = append(*into, s)
		}
	}
	if o.trace {
		b.abba(o.seed, closed(&capture, captureProfile(), nil, false), closed(&other, captureProfile(), rec, true))
	} else {
		b.abba(o.seed, closed(&capture, captureProfile(), nil, true), closed(&other, baselineProfile(), nil, false))
	}
	ops := medianBy(capture, (*segment).opsPerSec)
	rep.e2e["setup_s"] = medianBy(capture, func(s *segment) float64 { return float64(s.setupNs) / 1e9 })
	rep.e2e["ops_per_s"] = ops
	latencyMetrics(rep, capture)
	rep.note("%s: %d worker(s), 1 generator, %d outstanding, merge width %d, %d requests per closed segment, %d capture + %d %s repetitions",
		o.workload, W, sz.outstanding, mergeWidth, sz.serveN, len(capture), len(other), otherKind(o))
	// Merged and direct executions agree on every reply but not on
	// allocation addresses, so their space checksums may differ; both are
	// printed and neither is gated (ROADMAP item 4's oracle decides).
	for _, s := range append(capture, other...) {
		if s.checksum != 0 {
			rep.note("space checksum: served (merge width %d) %#x, direct width-1 %#x (not gated)", mergeWidth, s.checksum, ref.checksum)
		}
	}
	if !o.trace {
		rep.e2e["capture_speedup"] = ops / medianBy(other, (*segment).opsPerSec)
		rep.e2e["peak_rss_mb"] = peakRSSMB()
		return nil
	}

	zeroLayer(L, o.layerNames) // keeps crashRecover's wal.* values, taken during the repetitions
	L["trace.overhead_pct"] = 100 * (ops - medianBy(other, (*segment).opsPerSec)) / ops
	contentionMetrics(L, capture)
	L["mem.space_mb"] = float64(capture[0].spaceWords) * 8 / 1e6
	L["batcher.merge_ratio"] = medianBy(capture, func(s *segment) float64 { return s.batch.MergeRatio() })
	L["batcher.merged_share"] = medianBy(capture, func(s *segment) float64 {
		return float64(s.batch.Merged) / float64(max(1, s.batch.Batches))
	})
	L["batcher.fallbacks_per_kreq"] = medianBy(capture, func(s *segment) float64 {
		return 1000 * float64(s.batch.Fallbacks) / float64(s.n)
	})
	L["serve.submit_ns"] = medianBy(other, func(s *segment) float64 { return float64(s.submitNs) / float64(s.n) })
	L["serve.overhead_ns_per_op"] = 1e9*float64(W)/ops - refNsPerOp(ref)
	if durable {
		L["wal.log_bytes_per_op"] = medianBy(capture, func(s *segment) float64 { return float64(s.logBytes) / float64(s.n) })
		L["wal.records_per_op"] = medianBy(capture, func(s *segment) float64 { return float64(s.logRecords) / float64(s.n) })
		L["wal.bytes_per_record"] = medianBy(capture, func(s *segment) float64 {
			return float64(s.logBytes) / float64(max(1, s.logRecords))
		})
		L["wal.records_per_batch"] = medianBy(capture, func(s *segment) float64 {
			return float64(s.logRecords) / float64(max(1, s.logBatches))
		})
	}

	// One request in flight: the round trip through the queue with no
	// merging and no queueing behind other requests.
	rtt := servedSegment(servedCfg{profile: captureProfile(), memRequests: sz.serveN, durRoot: durRoot, outstanding: 1}, reqs[:sz.rtt1N])
	account(rep, rtt)
	rs := summarize(rtt.lat())
	L["serve.rtt1_p50_us"] = rs.p50 / 1e3
	L["serve.rtt1_p99_us"] = rs.p99 / 1e3

	// The open segment: Poisson arrivals at a fixed rate, latency from
	// the due time, generator lateness beside it. Its spans follow the
	// last traced closed segment's in the recorder.
	due := poissonSchedule(o.seed, sz.openN, sz.openRate)
	open := servedSegment(servedCfg{
		profile: captureProfile(), memRequests: sz.serveN, durRoot: durRoot, due: due, rec: rec,
	}, reqs[:sz.openN])
	account(rep, open)
	ol := summarize(open.lat())
	late := summarize(append([]int64(nil), open.lateNs[open.warm:]...))
	L["serve.open_p50_us"] = ol.p50 / 1e3
	L["serve.open_p99_us"] = ol.p99 / 1e3
	L["serve.open_merge_ratio"] = open.batch.MergeRatio()
	L["loadgen.late_p50_us"] = late.p50 / 1e3
	L["loadgen.late_p99_us"] = late.p99 / 1e3
	// Completed ÷ offered rate over the timed part: the schedule's span
	// against the span the completions took.
	L["loadgen.achieved_ratio"] = float64(due[open.n-1]-due[open.warm]) / float64(open.endNs-open.startNs)
	rep.note("open segment: %d requests at %.0f req/s, %d latency samples, p50 %.1f µs, highest supported percentile p%g = %.1f µs; generator lateness p50 %.1f µs p99 %.1f µs; achieved/offered %.4f",
		sz.openN, sz.openRate, ol.n, ol.p50/1e3, ol.tailP, ol.tailNs/1e3, late.p50/1e3, late.p99/1e3, L["loadgen.achieved_ratio"])
	if late.p99 > ol.p50 || L["loadgen.achieved_ratio"] < 0.99 {
		rep.note("open segment VOID: generator lateness p99 exceeds the open p50, or achieved/offered < 0.99 — its numbers describe the generator, not the server")
	}

	counted := countedPass(rep, closedReqs[:sz.countedN], L)
	pr := runProbes(o, sz, L)
	kvLedger(L, ledgerIn{
		workers: W, opsPerSec: ops, refNsPerOp: refNsPerOp(ref), counted: counted, countedOps: float64(sz.countedN), probes: pr,
		txnsPerOp: medianBy(capture, txnsPerOp), submitNs: L["serve.submit_ns"],
		walRecordsPerOp: L["wal.records_per_op"],
	})
	return rec
}
