package main

import (
	"runtime"
	"runtime/debug"
	"time"

	"repro/tm"
)

const (
	wlSTMClosed    = "stm-closed"
	wlDirect       = "kv-direct"
	wlServe        = "kv-serve"
	wlServeDurable = "kv-serve-durable"
)

var workloadNames = []string{wlSTMClosed, wlDirect, wlServe, wlServeDurable}

// sizes are the constants of the workloads. They are fixed here, never
// derived from a measurement at run time: a size or rate computed from
// this run's speed would move with the code under test. A run's length
// (-seconds) only sets how many repetitions of these fixed segments are
// taken, i.e. how well the medians are known.
type sizes struct {
	directN     int     // kv-direct: requests per repetition
	serveN      int     // kv-serve*: requests per closed segment (also sizes the server's memory)
	outstanding int     // kv-serve*: requests in flight in the closed segment
	openN       int     // kv-serve*: requests of the open segment (traced run)
	openRate    float64 // kv-serve*: Poisson arrival rate of the open segment, req/s
	rtt1N       int     // kv-serve*: requests of the one-outstanding segment (traced run)
	countedN    int     // kv-*: requests of the counted pass (traced run)
	probeIters  int     // iterations of one probe repetition
	probeReps   int     // repetitions of a probe; the median is reported
	walRecords  int     // records of each wal append probe
	minReps     int     // repetitions (rounds) taken even if -seconds is shorter
	maxReps     int
}

// Heap sizing rounds to powers of two: 70 000 requests keep the served
// space at 256 MB (72 000 is the last size before it doubles), which
// keeps the durable set-up (its initial checkpoint hashes the whole
// space) under a second and recovery near two.
var fullSizes = sizes{
	directN: 140000, serveN: 70000, outstanding: 64,
	openN: 60000, openRate: 20000, rtt1N: 24000, countedN: 50000,
	probeIters: 1 << 20, probeReps: 5, walRecords: 200,
	minReps: 4, maxReps: 64,
}

// quickSeconds caps a -quick run; its sizes are the full ones ÷ 20.
const quickSeconds = 1.5

func (s sizes) quick() sizes {
	s.directN /= 20
	s.serveN /= 20
	s.openN /= 20
	s.rtt1N /= 20
	s.countedN /= 20
	s.probeIters /= 20
	s.probeReps = 3
	s.walRecords /= 20
	s.minReps = 1
	s.maxReps = 1
	return s
}

func sizesFor(o options) sizes {
	if o.quick {
		return fullSizes.quick()
	}
	return fullSizes
}

// The three profiles of the rig. Measured segments run the perf
// engines; the counted pass runs the same capture configuration with
// the access counters perf mode compiles out.
func captureProfile() tm.Profile  { return tm.RuntimeAll(tm.LogTree).Perf() }
func baselineProfile() tm.Profile { return tm.Baseline().Perf() }
func countedProfile() tm.Profile  { return tm.RuntimeAll(tm.LogTree) }

// settle returns the previous segment's memory before the next one is
// timed, so a segment pays for its own garbage only.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// budget spends a run's -seconds, counted from the start of the process,
// on repetitions of fixed-size segments.
type budget struct {
	total   time.Duration
	reserve time.Duration // kept back for the steps after the repetitions
	longest time.Duration // longest repetition so far
	oneOff  time.Duration // part of the running repetition the next one will not repeat
	done    int
	sz      sizes
}

func newBudget(o options, sz sizes, reserve time.Duration) *budget {
	return &budget{total: time.Duration(o.seconds * float64(time.Second)), reserve: reserve, sz: sz}
}

// more reports whether another repetition fits; call it before each one.
func (b *budget) more() bool {
	if b.done < b.sz.minReps {
		return true
	}
	if b.done >= b.sz.maxReps {
		return false
	}
	return time.Since(epoch)+b.longest+b.reserve < b.total
}

// exclude takes a step that happens once per run (the crash/recover
// gate) out of the running repetition's length.
func (b *budget) exclude(d time.Duration) { b.oneOff += d }

// took records one finished repetition.
func (b *budget) took(d time.Duration) {
	b.done++
	d -= b.oneOff
	b.oneOff = 0
	if d > b.longest {
		b.longest = d
	}
}

// abba runs repetitions of the pair (capture, other) while the budget
// lasts, alternating which goes first; the seed picks the first leader.
func (b *budget) abba(seed uint64, capture, other func()) {
	for i := 0; b.more(); i++ {
		t0 := time.Now()
		if (uint64(i)+seed)%2 == 0 {
			capture()
			other()
		} else {
			other()
			capture()
		}
		b.took(time.Since(t0))
	}
}

// otherKind names what a run pairs its capture-profile repetitions
// with: baseline-profile ones, or traced ones in a traced run.
func otherKind(o options) string {
	if o.trace {
		return "traced"
	}
	return "baseline"
}

// runWorkload dispatches to the workload and returns the span recorder
// of a traced run (nil otherwise).
func runWorkload(o options, rep *report) *recorder {
	sz := sizesFor(o)
	switch o.workload {
	case wlSTMClosed:
		return runSTMClosed(o, sz, rep)
	case wlDirect:
		return runDirect(o, sz, rep)
	default:
		return runServed(o, sz, rep, o.workload == wlServeDurable)
	}
}
