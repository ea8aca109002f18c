package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// Span recording. Spans are taken in the rig's own code around calls
// into a layer (tracing inside the program is a later change). They
// live in one pre-sized slice; begin reserves a slot with an atomic
// counter so several goroutines record without a lock, and each slot's
// fields are written by goroutines ordered by the channel hand-off
// between them (generator → worker callback).

type span struct {
	name   uint8
	parent int32 // slot index of the causing span, -1 for a root
	req    int32 // request / app index shared by the spans of one operation, -1 if none
	start  int64 // ns since the rig's epoch
	end    int64
}

type recorder struct {
	names []string
	spans []span
	next  atomic.Int64
	lost  atomic.Int64 // begin calls past the pre-sized capacity
}

// maxSerialised caps how many spans the trace file lists; totals cover
// every span.
const maxSerialised = 50000

func newRecorder(capacity int, names ...string) *recorder {
	return &recorder{names: names, spans: make([]span, capacity)}
}

// begin opens a span and returns its slot (-1 when the recorder is nil
// or full; end and child begins accept -1).
func (r *recorder) begin(name uint8, parent, req int32, start int64) int32 {
	if r == nil {
		return -1
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.lost.Add(1)
		return -1
	}
	r.spans[i] = span{name: name, parent: parent, req: req, start: start}
	return int32(i)
}

func (r *recorder) end(slot int32, end int64) {
	if r == nil || slot < 0 {
		return
	}
	r.spans[slot].end = end
}

// setStart moves an open span's start (a span whose slot had to be
// reserved before its start was known).
func (r *recorder) setStart(slot int32, start int64) {
	if r == nil || slot < 0 {
		return
	}
	r.spans[slot].start = start
}

// add records a closed span.
func (r *recorder) add(name uint8, parent, req int32, start, end int64) int32 {
	slot := r.begin(name, parent, req, start)
	r.end(slot, end)
	return slot
}

// reset empties the recorder for the next traced repetition, keeping
// the lifecycle spans (those tied to no request: open, checkpoint,
// crash, recover), which happen once per run.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	kept := 0
	for _, s := range r.recorded() {
		if s.req < 0 {
			s.parent = -1
			r.spans[kept] = s
			kept++
		}
	}
	r.next.Store(int64(kept))
}

func (r *recorder) recorded() []span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// spanTotal aggregates every span of one name.
type spanTotal struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// selfTimes returns, per span, its duration minus the part of its
// interval its children cover. Children are visited in start order and
// clipped to the parent, so overlapping or overhanging children are
// not subtracted twice.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	kids := make(map[int32][]int32)
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent >= 0 && int(s.parent) < len(spans) {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	for p, cs := range kids {
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].start < spans[cs[b]].start })
		covered := spans[p].start
		for _, c := range cs {
			lo, hi := spans[c].start, spans[c].end
			if lo < covered {
				lo = covered
			}
			if hi > spans[p].end {
				hi = spans[p].end
			}
			if hi > lo {
				self[p] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

func (r *recorder) totals() []spanTotal {
	spans := r.recorded()
	self := selfTimes(spans)
	out := make([]spanTotal, len(r.names))
	for i, n := range r.names {
		out[i].Name = n
	}
	for i, s := range spans {
		t := &out[s.name]
		t.Count++
		t.TotalNs += s.end - s.start
		t.SelfNs += self[i]
	}
	return out
}

type spanJSON struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Req     int32  `json:"req"`
}

type traceFile struct {
	Workload string               `json:"workload"`
	Rig      rigInfo              `json:"rig"`
	Metrics  map[string]metricOut `json:"metrics"`
	Totals   []spanTotal          `json:"totals"`
	Lost     int64                `json:"spans_lost"`
	Spans    []spanJSON           `json:"spans"`
}

// writeTrace writes out/trace-<workload>.json once, at exit.
func writeTrace(dir, workload string, rig rigInfo, metrics map[string]metricOut, r *recorder) (string, error) {
	tf := traceFile{Workload: workload, Rig: rig, Metrics: metrics, Totals: r.totals(), Lost: r.lost.Load()}
	spans := r.recorded()
	if len(spans) > maxSerialised {
		spans = spans[:maxSerialised]
	}
	tf.Spans = make([]spanJSON, len(spans))
	for i, s := range spans {
		tf.Spans[i] = spanJSON{Name: r.names[s.name], StartNs: s.start, EndNs: s.end, Parent: s.parent, Req: s.req}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
