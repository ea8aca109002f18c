package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the command line end to end at the smallest size: the
// grid prints one table row per point, and removed flags (the JSON
// report path, -cm, -adaptive) are refused.
func TestRun(t *testing.T) {
	small := []string{"-backend", "srv-tmmsg", "-workers", "1", "-mergewidths", "1,8", "-requests", "256"}
	header := "fallbacks  aborted"
	cases := []struct {
		args   []string
		code   int
		rows   int      // table rows the sweep must print (0 = no table)
		stdout []string // substrings the output must contain
		stderr []string
	}{
		{args: []string{"-list"}, stdout: []string{"srv-tmkv  ", "srv-tmmsg  "}},
		{args: small, rows: 2, stdout: []string{header, "+mw1@peak", "+mw8@peak"}},

		{args: []string{"-format", "json"}, code: 2, stderr: []string{"not defined: -format", "-mergewidths"}},
		{args: []string{"-o", "out.json"}, code: 2, stderr: []string{"not defined: -o", "-mergewidths"}},
		{args: []string{"-cm", "all"}, code: 2, stderr: []string{"not defined: -cm", "-mergewidths"}},
		{args: []string{"-adaptive"}, code: 2, stderr: []string{"not defined: -adaptive", "-mergewidths"}},
		{args: []string{"-backend", "no-such-backend", "-workers", "1"}, code: 1, stderr: []string{"no-such-backend"}},
	}
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
		if c.code != 0 && stdout.Len() != 0 {
			t.Errorf("%v: refused, yet printed:\n%s", c.args, stdout.String())
		}
		if c.rows == 0 {
			continue
		}
		rows := strings.Split(strings.TrimSpace(stdout.String()), "\n")[2:]
		if len(rows) != c.rows {
			t.Errorf("%v: %d table rows, want %d:\n%s", c.args, len(rows), c.rows, stdout.String())
		}
	}
}
