package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the command line end to end: every experiment the
// -experiment usage string names dispatches at its smallest size and
// prints its table header, and removed surface (the JSON report path,
// the contention-manager experiment) is refused with the list of what
// remains.
func TestRun(t *testing.T) {
	one := []string{"-bench", "ssca2", "-runs", "1"}
	sweep := []string{"-threadlist", "1", "-runs", "1"}
	sweepTables := []string{"Thread sweep (median of runs)", "Open-loop latency", "fallbacks  aborted"}
	cases := []struct {
		args   []string
		code   int
		stdout []string // substrings the table output must contain
		stderr []string
	}{
		{args: append([]string{"-experiment", "list"}, one...), stdout: []string{"ssca2  "}},
		{args: append([]string{"-experiment", "table1"}, one...), stdout: []string{"Table 1: abort-to-commit ratio at 1 threads", "ssca2"}},
		{args: append([]string{"-experiment", "table2"}, one...), stdout: []string{"Table 2: % relative standard deviation at 1 threads (1 runs)", "ssca2"}},
		{args: append([]string{"-experiment", "fig10"}, one...), stdout: []string{"Figure 10: % improvement over baseline at 1 thread", "ssca2"}},
		{args: append([]string{"-experiment", "fig11a"}, one...), stdout: []string{"Figure 11(a): % improvement over baseline at 1 threads", "ssca2"}},
		{args: append([]string{"-experiment", "fig11b"}, one...), stdout: []string{"Figure 11(b): % improvement over baseline at 1 threads", "runtime-w-heap-filter"}},
		{args: append([]string{"-experiment", "capture"}, one...), stdout: []string{"Capture/elision breakdown", "runtime+skipshared"}},
		{args: append([]string{"-experiment", "readmostly"}, sweep...), stdout: append(sweepTables, "tmkv-read", "compiler+phases", "srv-tmkv-read")},

		{args: []string{"-experiment", "sweep"}, code: 1, stderr: []string{`unknown experiment "sweep"`, experiments}},
		{args: []string{"-experiment", "durability"}, code: 1, stderr: []string{`unknown experiment "durability"`, experiments}},
		{args: []string{"-experiment", "contention"}, code: 1, stderr: []string{`unknown experiment "contention"`, experiments}},
		{args: []string{"-format", "json"}, code: 2, stderr: []string{"not defined: -format", experiments}},
		{args: []string{"-o", "out.json"}, code: 2, stderr: []string{"not defined: -o", experiments}},
		{args: []string{"-phases"}, code: 2, stderr: []string{"not defined: -phases", experiments}},
		{args: []string{"-fsync"}, code: 2, stderr: []string{"not defined: -fsync", experiments}},
		{args: []string{"-experiment", "fig10", "-bench", "no-such-workload"}, code: 1, stderr: []string{"no-such-workload"}},
	}
	dispatched := map[string]bool{}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("%v: exit %d, want %d\nstderr: %s", c.args, code, c.code, stderr.String())
			continue
		}
		for _, want := range c.stdout {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%v: stdout lacks %q:\n%s", c.args, want, stdout.String())
			}
		}
		for _, want := range c.stderr {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("%v: stderr lacks %q:\n%s", c.args, want, stderr.String())
			}
		}
		if c.code == 0 {
			dispatched[c.args[1]] = true
		} else if stdout.Len() != 0 {
			t.Errorf("%v: refused, yet printed:\n%s", c.args, stdout.String())
		}
	}
	for _, exp := range strings.Split(experiments, "|") {
		if !dispatched[exp] {
			t.Errorf("experiment %q is in the usage string but no case above ran it", exp)
		}
	}
}
