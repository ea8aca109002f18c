// Package serve is the served front-end of the transactional runtime:
// a Server owns a worker pool where each worker drives its own
// tm.Thread and tm.Batcher, decodes compact wire requests, and
// executes compatible requests as merged transactions whose replies
// are assembled in captured memory.
//
// The point of the subsystem is the interaction of two optimizations.
// Application-side transaction merging (PAPERS.md's arXiv 2601.10596)
// coalesces many small requests into one transaction, amortizing
// begin/commit bookkeeping; the paper's captured-memory analysis then
// elides the barriers on the merged batch's reply assembly, because
// every reply slot lives in a transaction-local stack block. Each
// request declares a Footprint of compatibility keys and a phase kind;
// the Batcher admits only non-conflicting, same-phase requests into
// one transaction and falls back to per-request execution when a
// merged transaction aborts, so no request is ever lost.
//
// Backends adapt a workload's data structures to the request codec.
// The in-tree scenarios register themselves (srv-tmkv, srv-tmmsg);
// external code registers its own with Register and drives the same
// Server, open-loop client population, and latency harness.
package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/tm"
)

// Backend adapts one workload to the serving front-end: it sizes and
// populates the shared state, generates deterministic request streams,
// and translates decoded requests into executable batch items.
// Instances are single use: one Backend serves one Server.
type Backend interface {
	// MemConfig sizes the simulated address space for a server with
	// the given worker count expected to execute about totalRequests
	// requests (MaxThreads must cover workers).
	MemConfig(workers, totalRequests int) tm.MemConfig
	// Setup builds the shared state single-threadedly on thread 0,
	// before any worker runs, and creates no other thread. The
	// repository's backends run it uninstrumented, inside a
	// single-thread scope in which creating a second thread panics.
	Setup(rt *tm.Runtime)
	// ReplyWords is the per-request reply block size, in words.
	ReplyWords() int
	// NewRequest derives the i-th request of the deterministic stream
	// for seed — the open-loop client population's request source.
	NewRequest(seed, i uint64) Request
	// Item translates a decoded request into a batch item: footprint,
	// phase kind, and the transactional Apply that serves it.
	Item(req Request) tm.BatchItem
}

// BackendFactory creates a fresh backend instance.
type BackendFactory func() Backend

// regEntry is one registration: the factory plus a one-line
// description surfaced by listings.
type regEntry struct {
	factory BackendFactory
	desc    string
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]regEntry)
)

// Register adds a backend factory under name, with a one-line
// description for listings (tmsrv -help, CI logs). It panics on an
// empty name or a duplicate registration, like tm.RegisterWorkload.
func Register(name, desc string, f BackendFactory) {
	if name == "" || f == nil {
		panic("serve: Register with empty name or nil factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("serve: duplicate backend " + name)
	}
	registry[name] = regEntry{factory: f, desc: desc}
}

// Description returns the description a backend was registered with
// ("" for an unknown name).
func Description(name string) string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return registry[name].desc
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New instantiates a registered backend. An unknown name is an error
// that lists what is registered.
func New(name string) (Backend, error) {
	registryMu.RLock()
	e, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("serve: unknown backend %q (registered: %s)",
			name, strings.Join(Backends(), ", "))
	}
	return e.factory(), nil
}
