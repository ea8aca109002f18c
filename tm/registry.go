package tm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Workload is one benchmark scenario the harness can run: it sizes its
// own address space, populates initial data, executes a timed parallel
// phase, and checks post-run invariants. Instances are single use
// (Setup/Run/Validate once each); the factory creates a fresh one per
// run.
type Workload interface {
	// Name is the workload's registry/report name.
	Name() string
	// MemConfig sizes the simulated address space for this workload.
	MemConfig() MemConfig
	// Setup populates initial data single-threadedly on thread 0 and
	// creates no other thread. The repository's workloads run it
	// uninstrumented, inside a single-thread scope in which creating a
	// second thread panics.
	Setup(rt *Runtime)
	// Run executes the timed parallel phase on nthreads workers.
	Run(rt *Runtime, nthreads int)
	// Validate checks post-run invariants (called after Run returns).
	// The repository's workloads run it uninstrumented on thread 0,
	// inside the same scope as Setup, while every other thread is
	// quiescent.
	Validate(rt *Runtime) error
}

// WorkloadFactory creates a fresh workload instance.
type WorkloadFactory func() Workload

// regEntry is one registration: the factory plus an optional one-line
// description surfaced by listings.
type regEntry struct {
	factory WorkloadFactory
	desc    string
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]regEntry)
)

// RegisterWorkload adds a workload factory under name. The in-tree
// STAMP ports self-register via internal/stamp; external scenario
// packages call it from init to plug into the same harness, reports,
// and bench matrix. It panics on an empty name or a duplicate
// registration, like database/sql.Register.
func RegisterWorkload(name string, f WorkloadFactory) {
	RegisterWorkloadDesc(name, "", f)
}

// RegisterWorkloadDesc is RegisterWorkload with a one-line description
// attached, so listings (stampbench -experiment list, CI logs) can
// explain what each workload models without resolving it.
func RegisterWorkloadDesc(name, desc string, f WorkloadFactory) {
	if name == "" || f == nil {
		panic("tm: RegisterWorkload with empty name or nil factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("tm: duplicate workload " + name)
	}
	registry[name] = regEntry{factory: f, desc: desc}
}

// WorkloadDescription returns the description a workload was
// registered with ("" when none was given or the name is unknown).
func WorkloadDescription(name string) string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return registry[name].desc
}

// Workloads returns the registered workload names, sorted.
func Workloads() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewWorkload instantiates a registered workload. An unknown name is
// an error that lists what is registered.
func NewWorkload(name string) (Workload, error) {
	registryMu.RLock()
	e, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("tm: unknown workload %q (registered: %s)",
			name, strings.Join(Workloads(), ", "))
	}
	return e.factory(), nil
}
