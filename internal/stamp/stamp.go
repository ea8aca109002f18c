// Package stamp defines the benchmark interface shared by the Go
// ports of the STAMP 0.9.9 applications the paper evaluates, plus the
// registry the harness, CLI tools, and benches enumerate.
//
// Each port preserves its original's *transactional structure* — which
// data structures are shared, what each transaction reads and writes,
// where memory is allocated inside transactions, and which accesses
// the original hand-instrumented (TM_* vs P_* variants) — because
// those properties determine the paper's barrier-mix and performance
// results. Input sizes are scaled to laptop scale; all generators are
// deterministic. Substitutions are documented per benchmark.
//
// The ports are written against the low-level engine (internal/stm);
// Register bridges each one into the public tm workload registry, so
// the harness and bench tools resolve STAMP and external scenarios
// through the same tm.NewWorkload lookup.
package stamp

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/mem"
	"repro/internal/stm"
	"repro/tm"
)

// Benchmark is one STAMP application configuration.
type Benchmark interface {
	// Name is the STAMP-style name (e.g. "vacation-high").
	Name() string
	// MemConfig sizes the simulated address space for this workload.
	MemConfig() mem.Config
	// Setup populates initial data single-threadedly on rt's thread 0.
	// Through the tm registry it runs inside thread 0's Exclusive
	// scope (stm.Thread.Exclusive): uninstrumented, and creating a
	// second thread panics.
	Setup(rt *stm.Runtime)
	// Run executes the timed parallel phase on nthreads workers.
	Run(rt *stm.Runtime, nthreads int)
	// Validate checks post-run invariants (run after Run returns).
	Validate(rt *stm.Runtime) error
}

// Factory creates a fresh benchmark instance (instances are single
// use: Setup/Run/Validate once each).
type Factory func() Benchmark

var registry []struct {
	name string
	f    Factory
}

// tmWorkload adapts a Benchmark to the public tm.Workload interface by
// unwrapping the engine runtime the port was written against. Setup
// runs inside thread 0's Exclusive scope.
type tmWorkload struct{ b Benchmark }

func (w tmWorkload) Name() string            { return w.b.Name() }
func (w tmWorkload) MemConfig() tm.MemConfig { return w.b.MemConfig() }
func (w tmWorkload) Setup(rt *tm.Runtime) {
	srt := rt.Unwrap()
	srt.Thread(0).Exclusive(func() { w.b.Setup(srt) })
}
func (w tmWorkload) Run(rt *tm.Runtime, n int)     { w.b.Run(rt.Unwrap(), n) }
func (w tmWorkload) Validate(rt *tm.Runtime) error { return w.b.Validate(rt.Unwrap()) }

// Register adds a benchmark factory to the registry and bridges it
// into the public tm workload registry, carrying a one-line
// description for listings. It is called from the benchmark packages'
// init functions.
func Register(name, desc string, f Factory) {
	for _, e := range registry {
		if e.name == name {
			panic("stamp: duplicate benchmark " + name)
		}
	}
	registry = append(registry, struct {
		name string
		f    Factory
	}{name, f})
	tm.RegisterWorkloadDesc(name, desc, func() tm.Workload { return tmWorkload{f()} })
}

// Names returns the registered benchmark names in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// New instantiates a registered benchmark. An unknown name is an
// error listing every registered name, so a typo in a -bench flag
// shows what is available.
func New(name string) (Benchmark, error) {
	for _, e := range registry {
		if e.name == name {
			return e.f(), nil
		}
	}
	names := Names()
	sort.Strings(names)
	return nil, fmt.Errorf("stamp: unknown benchmark %q (registered: %s)",
		name, strings.Join(names, ", "))
}

// RunParallel executes worker on nthreads goroutines, each bound to
// its own stm.Thread, and waits for all of them.
func RunParallel(rt *stm.Runtime, nthreads int, worker func(th *stm.Thread, tid int, ntotal int)) {
	var wg sync.WaitGroup
	for i := 0; i < nthreads; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			worker(rt.Thread(tid), tid, nthreads)
		}(i)
	}
	wg.Wait()
}
