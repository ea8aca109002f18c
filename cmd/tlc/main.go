// Command tlc compiles and runs TL programs (see internal/tlc) under
// a chosen STM configuration, printing the capture-analysis report and
// the barrier statistics — a direct view of the paper's Sec. 3.2
// compiler optimization at work.
//
// Usage:
//
//	tlc -analysis program.tl          # show what the compiler elides
//	tlc -run -opt compiler program.tl # run with static elision
//	tlc -run -opt baseline program.tl # run with full barriers
//	tlc -run -opt tree program.tl     # run with runtime capture analysis
//	tlc -run -noinline program.tl     # without the inlining pass
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/tlc"
	"repro/tm"
)

func main() {
	analysis := flag.Bool("analysis", false, "print the capture-analysis report")
	run := flag.Bool("run", false, "execute main()")
	opt := flag.String("opt", "compiler", "baseline|compiler|tree")
	noinline := flag.Bool("noinline", false, "disable the inlining pass")
	verify := flag.Bool("verify", false, "verify every static elision against the dynamic oracle")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tlc [-analysis] [-run] [-opt mode] program.tl")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlc:", err)
		os.Exit(1)
	}
	var c *tlc.Compiled
	if *noinline {
		c, err = tlc.CompileNoInline(string(src))
	} else {
		c, err = tlc.Compile(string(src))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s:%v\n", flag.Arg(0), err)
		os.Exit(1)
	}
	if *analysis || !*run {
		fmt.Print(c.Report())
	}
	if !*run {
		return
	}
	var p tm.Profile
	switch *opt {
	case "baseline":
		p = tm.Baseline()
	case "compiler":
		p = tm.CompilerElision()
	case "tree":
		p = tm.RuntimeAll(tm.LogTree)
	default:
		fmt.Fprintf(os.Stderr, "tlc: unknown -opt %q\n", *opt)
		os.Exit(2)
	}
	if *verify {
		p = p.With(tm.WithVerifyElision())
	}
	rt := tm.Open(append(p.Options(), tm.WithMemory(c.DefaultMemConfig()))...)
	defer rt.Close()
	// The TL interpreter drives the engine directly; Unwrap is the
	// documented escape hatch for in-tree tooling.
	in := tlc.NewInterp(c, rt.Unwrap())
	ret, err := in.Call(rt.Unwrap().Thread(0), "main")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlc:", err)
		os.Exit(1)
	}
	for _, v := range in.Output() {
		fmt.Println(v)
	}
	s := rt.Snapshot().Stats
	fmt.Printf("main() = %d\n", ret)
	fmt.Printf("barriers: %d reads (%d elided), %d writes (%d elided); %d commits, %d aborts\n",
		s.ReadTotal, s.ReadElided(), s.WriteTotal, s.WriteElided(), s.Commits, s.Aborts)
}
