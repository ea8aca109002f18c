package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchSpec mirrors BENCHMARK.json: the declaration the rig's output is
// checked against on every run.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, list := range [][]metricDecl{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if !metricNameRE.MatchString(m.Name) {
				return nil, fmt.Errorf("%s: bad metric name %q", path, m.Name)
			}
			if seen[m.Name] {
				return nil, fmt.Errorf("%s: metric %q declared twice", path, m.Name)
			}
			seen[m.Name] = true
		}
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (s *benchSpec) layerNames() []string {
	out := make([]string, len(s.PerLayer))
	for i, d := range s.PerLayer {
		out[i] = d.Name
	}
	return out
}

func (s *benchSpec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// collect builds the result line's metrics — every end-to-end metric
// of an untraced run, every per-layer metric of a traced one — and
// reports each declared metric that was not measured or is not a finite
// number, and each measured name BENCHMARK.json does not declare.
func (s *benchSpec) collect(rep *report, traced bool) (map[string]metricOut, []string) {
	var problems []string
	undeclared := func(decls []metricDecl, got map[string]float64) {
		declared := map[string]bool{}
		for _, d := range decls {
			declared[d.Name] = true
		}
		for name := range got {
			if !declared[name] {
				problems = append(problems, fmt.Sprintf("metric %s measured but not declared in BENCHMARK.json", name))
			}
		}
	}
	undeclared(s.EndToEnd, rep.e2e)
	undeclared(s.PerLayer, rep.layer)

	decls, got := s.EndToEnd, rep.e2e
	if traced {
		decls, got = s.PerLayer, rep.layer
	}
	out := make(map[string]metricOut, len(decls))
	for _, d := range decls {
		v, ok := got[d.Name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("metric %s declared in BENCHMARK.json but not measured", d.Name))
		case math.IsNaN(v) || math.IsInf(v, 0):
			problems = append(problems, fmt.Sprintf("metric %s is %v", d.Name, v))
		default:
			out[d.Name] = metricOut{Value: v, Unit: d.Unit}
		}
	}
	sort.Strings(problems)
	return out, problems
}

// runRepeat is the calibration mode the bounds in BENCHMARK.json were
// fixed with: it re-executes this binary k times, one process per run,
// with seeds seed…seed+k-1 (the acceptance pipeline also varies the
// seed), and prints for every end-to-end metric the median, the
// quartiles, the spread (q3−q1)/median and PASS/FAIL against the bound.
func runRepeat(spec *benchSpec, o options, k int) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("locating own binary: %v", err)
	}
	values := map[string][]float64{}
	failedRuns := 0
	for i := 0; i < k; i++ {
		args := []string{
			"-root", o.root, "-workload", o.workload, "-durdir", o.durdir,
			"-seed", strconv.FormatUint(o.seed+uint64(i), 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res struct {
			Correct bool                 `json:"correct"`
			Metrics map[string]metricOut `json:"metrics"`
		}
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || err != nil || !res.Correct {
			fmt.Printf("run %d (seed %d): FAILED (exit: %v, parse: %v)\n", i+1, o.seed+uint64(i), err, jerr)
			failedRuns++
			continue
		}
		fmt.Printf("run %d (seed %d):", i+1, o.seed+uint64(i))
		for _, d := range spec.EndToEnd {
			v := res.Metrics[d.Name].Value
			values[d.Name] = append(values[d.Name], v)
			fmt.Printf(" %s=%.6g", d.Name, v)
		}
		fmt.Println()
	}
	fmt.Printf("\n%s, %d runs, %g s each%s\n", o.workload, k, o.seconds, map[bool]string{true: " (quick: not comparable)"}[o.quick])
	fmt.Printf("%-16s %-6s %12s %12s %12s %8s %7s  %s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound", "")
	status := 0
	for _, d := range spec.EndToEnd {
		vs := values[d.Name]
		if len(vs) < 2 {
			fmt.Printf("%-16s %-6s too few successful runs\n", d.Name, d.Unit)
			status = 1
			continue
		}
		q1, _, q3 := quartiles(vs)
		med := median(vs)
		spread := (q3 - q1) / med
		verdict := "PASS"
		if spread > d.Bound {
			verdict = "FAIL"
			status = 1
		}
		fmt.Printf("%-16s %-6s %12.6g %12.6g %12.6g %7.2f%% %6.0f%%  %s\n", d.Name, d.Unit, med, q1, q3, spread*100, d.Bound*100, verdict)
	}
	if failedRuns > 0 {
		status = 1
	}
	return status
}
