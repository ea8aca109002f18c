// TLC demo: compile a TL program, show the Sec. 3.2 capture analysis,
// then run it under the baseline and the compiler optimization and
// compare barrier counts.
//
//	go run ./examples/tlcdemo
package main

import (
	"fmt"

	"repro/internal/tlc"
	"repro/tm"
)

const program = `
// A shared stack of nodes: each push allocates its node inside the
// transaction. After inlining push() into the atomic block, the
// compiler's capture analysis proves n transaction-local and elides
// the barriers for n.key/n.next; the accesses through the shared list
// header stay instrumented.
struct Node {
	key  int;
	next *Node;
}
struct List {
	head *Node;
	size int;
}
var list *List;

fn push(l *List, key int) {
	var n *Node;
	n = alloc Node;
	n.key = key;        // captured (fresh): elided
	n.next = l.head;    // l.head load is shared; the n.next store is elided
	l.head = n;         // shared: kept
	l.size = l.size + 1;
}

fn sum(l *List) int {
	var s int;
	var cur *Node;
	cur = l.head;
	while cur != nil {
		s = s + cur.key;   // shared loads: kept
		cur = cur.next;
	}
	return s;
}

fn main() int {
	atomic { list = alloc List; }
	var i int;
	i = 1;
	while i <= 200 {
		atomic {
			push(list, i);
			var scratch [4]int;   // transaction-local stack array
			scratch[0] = i;
			scratch[1] = scratch[0] * 2;
		}
		i = i + 1;
	}
	var total int;
	atomic { total = sum(list); }
	return total;
}`

func main() {
	c, err := tlc.Compile(program)
	if err != nil {
		panic(err)
	}
	fmt.Println("=== capture analysis (after inlining) ===")
	fmt.Print(c.Report())

	noInline, err := tlc.CompileNoInline(program)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nwithout inlining the analysis proves only %d sites (vs %d)\n",
		noInline.Analysis.Fresh+noInline.Analysis.Stack,
		c.Analysis.Fresh+c.Analysis.Stack)

	for _, p := range []tm.Profile{tm.Baseline(), tm.CompilerElision()} {
		rt := tm.Open(append(p.Options(), tm.WithMemory(c.DefaultMemConfig()))...)
		in := tlc.NewInterp(c, rt.Unwrap())
		ret, err := in.Call(rt.Unwrap().Thread(0), "main")
		if err != nil {
			panic(err)
		}
		s := rt.Snapshot().Stats
		fmt.Printf("\n[%s] main() = %d; reads: %d (%d elided), writes: %d (%d elided)\n",
			p.Name(), ret, s.ReadTotal, s.ReadElided(), s.WriteTotal, s.WriteElided())
		rt.Close()
	}
	fmt.Println("\nEvery elided access was proven transaction-local by the")
	fmt.Println("intraprocedural pointer analysis after inlining; the tests in")
	fmt.Println("internal/tlc validate the analysis against the dynamic oracle.")
}
