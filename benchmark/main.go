// Command benchmark is the repository's measurement rig: four
// workloads (stm-closed, kv-direct, kv-serve, kv-serve-durable), the
// end-to-end metrics later changes are judged by, and — with -trace 1 —
// a per-layer ledger taken from outside the program, by timing calls
// into each layer's exported functions. BENCHMARK.json at the
// repository root declares the workloads, metrics and bounds; README.md
// in this directory explains them.
//
//	bash benchmark/run.sh -workload kv-serve [-seed N] [-seconds S] [-trace 1]
//	bash benchmark/run.sh -workload kv-serve -repeat 5      # calibration table
//	bash benchmark/run.sh -workload kv-serve -quick          # smoke, not comparable
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	root     string
	durdir   string
	// layerNames is BENCHMARK.json's per-layer list: a traced run emits
	// every name, 0 for the layers the workload does not exercise.
	layerNames []string
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what one run measured. Every workload fills e2e in
// an untraced run and layer in a traced one; notes are free-form lines
// for the human-readable part of the output.
type report struct {
	attempted int
	failed    int
	gateFails []string
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// gate records a failed correctness gate; the run then reports
// correct=false and exits non-zero.
func (r *report) gate(format string, args ...any) {
	r.gateFails = append(r.gateFails, fmt.Sprintf(format, args...))
}

// epoch anchors every timestamp of the run; nowNs is monotonic.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// cleanups run on every exit path (normal return, gate failure, stall
// watchdog, signal) so no durability directory outlives the process.
var cleanups []func()

func runCleanups() {
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
	cleanups = nil
}

// scratch is the process's one directory for files (durability
// directories, the wal probes' logs), created under parent on first use
// and removed by the cleanups.
var scratch string

// scratchDir makes a fresh sub-directory of the process's scratch
// directory.
func scratchDir(parent, prefix string) string {
	if scratch == "" {
		if err := os.MkdirAll(parent, 0o755); err != nil {
			fatalf("creating %s: %v", parent, err)
		}
		d, err := os.MkdirTemp(parent, "rig-")
		if err != nil {
			fatalf("creating scratch directory: %v", err)
		}
		scratch = d
		cleanups = append(cleanups, func() {
			os.RemoveAll(scratch)
			scratch = ""
		})
	}
	d, err := os.MkdirTemp(scratch, prefix)
	if err != nil {
		fatalf("creating scratch directory: %v", err)
	}
	return d
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	runCleanups()
	os.Exit(2)
}

func main() {
	var o options
	var trace, repeat int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the request streams and arrival schedule")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time of the run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: spans, probes, counted pass, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: sizes ÷ 20, output marked comparable: false")
	flag.IntVar(&repeat, "repeat", 0, "calibration: re-execute this binary K times (seeds seed…seed+K-1) and print the spread of each end-to-end metric")
	flag.StringVar(&o.root, "root", "", "repository root (default: the directory holding BENCHMARK.json, looked up from the working directory)")
	flag.StringVar(&o.durdir, "durdir", "", "parent of the durability directories (default: <root>/benchmark/out)")
	flag.Parse()
	o.trace = trace != 0

	root, err := findRoot(o.root)
	if err != nil {
		fatalf("%v", err)
	}
	o.root = root
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatalf("%v", err)
	}
	o.layerNames = spec.layerNames()
	if !spec.hasWorkload(o.workload) {
		fatalf("unknown workload %q (BENCHMARK.json declares: %s)", o.workload, strings.Join(spec.workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.quick {
		o.seconds = math.Min(o.seconds, quickSeconds)
	}
	if o.durdir == "" {
		o.durdir = filepath.Join(root, "benchmark", "out")
	}
	if repeat > 0 {
		os.Exit(runRepeat(spec, o, repeat))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fatalf("interrupted")
	}()

	os.Exit(runOnce(spec, o))
}

// runOnce measures one workload and prints the report; the last line
// of standard output is the result object.
func runOnce(spec *benchSpec, o options) int {
	defer runCleanups()
	rig := collectRig(o)
	rep := newReport()
	rec := runWorkload(o, rep)

	metrics, problems := spec.collect(rep, o.trace)
	for _, p := range problems {
		rep.gate("%s", p)
	}
	correct := len(rep.gateFails) == 0 && rep.failed == 0

	printRig(rig)
	fmt.Printf("workload %s: attempted %d, failed %d, failed_frac %g\n",
		o.workload, rep.attempted, rep.failed, float64(rep.failed)/math.Max(1, float64(rep.attempted)))
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	printMetrics("end-to-end", spec.EndToEnd, rep.e2e)
	if o.trace {
		printMetrics("per-layer", spec.PerLayer, rep.layer)
		path, err := writeTrace(filepath.Join(o.root, "benchmark", "out"), o.workload, rig, metrics, rec)
		if err != nil {
			rep.gate("writing trace: %v", err)
			correct = false
		} else {
			fmt.Printf("trace: %s\n", path)
		}
	}
	for _, g := range rep.gateFails {
		fmt.Printf("GATE FAILED: %s\n", g)
	}
	out, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

func printMetrics(title string, decls []metricDecl, got map[string]float64) {
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]metricDecl{}
	for _, d := range decls {
		units[d.Name] = d
	}
	if len(names) > 0 {
		fmt.Printf("%s metrics:\n", title)
	}
	for _, n := range names {
		d := units[n]
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  [%s is better, bound %g%%]", d.Better, d.Bound*100)
		}
		fmt.Printf("  %-34s %14.6g %s%s\n", n, got[n], d.Unit, bound)
	}
}

// rigInfo is the machine and configuration a number was taken on, so a
// number from a wrong machine cannot silently become a baseline.
type rigInfo struct {
	Nproc          int      `json:"nproc"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	P              int      `json:"p"`
	Workers        int      `json:"serve_workers"`
	CPUModel       string   `json:"cpu_model"`
	GoVersion      string   `json:"go_version"`
	GitSHA         string   `json:"git_sha"`
	Seed           uint64   `json:"seed"`
	Seconds        float64  `json:"seconds"`
	Durdir         string   `json:"durdir"`
	DurdirFS       string   `json:"durdir_fs"`
	Oversubscribed bool     `json:"oversubscribed"`
	Quick          bool     `json:"quick"`
	Traced         bool     `json:"traced"`
	Comparable     bool     `json:"comparable"`
	Warnings       []string `json:"warnings,omitempty"`
}

// threads returns P = min(GOMAXPROCS, 4): the thread count of the
// direct and closed STM workloads.
func threads() int { return min(runtime.GOMAXPROCS(0), 4) }

// serveWorkers leaves one core to the single load-generator goroutine.
func serveWorkers() int { return max(1, threads()-1) }

func collectRig(o options) rigInfo {
	r := rigInfo{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		P:          threads(),
		Workers:    serveWorkers(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(o.root),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Quick:      o.quick,
		Traced:     o.trace,
	}
	r.Oversubscribed = r.P > r.Nproc
	if r.Oversubscribed {
		r.Warnings = append(r.Warnings, fmt.Sprintf("oversubscribed: P=%d threads on %d CPUs", r.P, r.Nproc))
	}
	if o.workload == wlServeDurable {
		r.Durdir = o.durdir
		r.DurdirFS = fsType(o.durdir)
		if r.DurdirFS != "tmpfs" {
			r.Warnings = append(r.Warnings, fmt.Sprintf("durdir_not_tmpfs: %s is on %s; log writes reach the page cache of a disk file system", o.durdir, r.DurdirFS))
		}
	}
	if o.quick {
		r.Warnings = append(r.Warnings, "quick: sizes ÷ 20")
	}
	r.Comparable = len(r.Warnings) == 0
	return r
}

func printRig(r rigInfo) {
	b, _ := json.Marshal(r) // plain struct of scalars: cannot fail
	fmt.Printf("rig: %s\n", b)
	for _, w := range r.Warnings {
		fmt.Printf("WARNING: %s\n", w)
	}
	fmt.Printf("comparable: %v\n", r.Comparable)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA reads the checked-out commit without running git; a checkout
// that is not a git repository reports "unknown".
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// fsType names the file system holding dir (or its nearest existing
// parent).
func fsType(dir string) string {
	for {
		var st syscall.Statfs_t
		if err := syscall.Statfs(dir, &st); err == nil {
			switch uint32(st.Type) {
			case 0x01021994:
				return "tmpfs"
			case 0xEF53:
				return "ext"
			case 0x794c7630:
				return "overlayfs"
			case 0x58465342:
				return "xfs"
			case 0x9123683E:
				return "btrfs"
			}
			return fmt.Sprintf("0x%x", uint32(st.Type))
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// peakRSSMB is the process's maximum resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// findRoot locates the directory holding BENCHMARK.json: the -root
// flag, the working directory, or its parent (go run -C benchmark).
func findRoot(flagRoot string) (string, error) {
	cands := []string{flagRoot}
	if flagRoot == "" {
		cands = []string{".", ".."}
	}
	for _, c := range cands {
		if _, err := os.Stat(filepath.Join(c, "BENCHMARK.json")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in %v; pass -root", cands)
}
