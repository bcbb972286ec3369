// Flowback: runs the paper's Fig 4.1 program shape (d = SubD(a,b,a+b+c);
// if (d>0) sq=sqrt(d) else sq=sqrt(-d); a=a+sq) and shows incremental
// tracing at work: the top-level graph presents SubD and sqrt as sub-graph
// nodes built from postlog substitution, then the example drills into
// SubD's own interval — emulating only that e-block — exactly the
// "expand the sub-graph node" interaction of §5.3.
//
//	go run ./examples/flowback
package main

import (
	"fmt"
	"log"
	"os"

	"ppd/internal/compile"
	"ppd/internal/controller"
	"ppd/internal/dynpdg"
	"ppd/internal/eblock"
	"ppd/internal/vm"
)

const program = `
func SubD(x int, y int, z int) int {
	var scaled = z * 2;
	var base = x + y;
	return base - scaled;
}

func sqrt(v int) int {
	var r = 0;
	while ((r + 1) * (r + 1) <= v) { r = r + 1; }
	return r;
}

func main() {
	var c = 5;
	var a = 30;
	var b = 20;
	var d = SubD(a, b, a + b + c);
	var sq = 0;
	if (d > 0) { sq = sqrt(d); } else { sq = sqrt(-d); }
	a = a + sq;
	print("a=", a, " d=", d, " sq=", sq);
}
`

func main() {
	art, err := compile.CompileSource("fig41.mpl", program, eblock.Config{})
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Output: os.Stdout})
	if err := v.Run(); err != nil {
		log.Fatalf("run: %v", err)
	}

	c := controller.FromRun(art, v)

	// Build main's dynamic graph. SubD and sqrt completed, so they appear
	// as sub-graph nodes whose effects came from their postlogs.
	mainIdx, err := c.FocusInterval(0)
	if err != nil {
		log.Fatal(err)
	}
	g, err := c.Graph(0, mainIdx)
	if err != nil {
		log.Fatal(err)
	}
	last := g.LastNode() // a = a + sq
	fmt.Println("top-level flowback at the final assignment (sub-graph nodes collapsed):")
	fmt.Print(controller.RenderFragment(g, last.ID, 2))

	// Count how much of the program the controller actually emulated. The
	// emulator streamed its events into the graph, so no trace was kept.
	res := c.Result(0, mainIdx)
	fmt.Printf("\nincremental tracing: emulated %d log records into %d nodes and %d edges\n",
		res.RecordsConsumed, len(g.Nodes), len(g.Edges))

	// The user asks about SubD: expand the sub-graph node by emulating
	// SubD's own interval (the nested log interval of §5.2).
	var subD *dynpdg.Node
	for _, n := range g.Nodes {
		if n.Kind == dynpdg.NodeSubGraph && n.Label == "SubD" {
			subD = n
		}
	}
	if subD == nil {
		log.Fatal("no SubD sub-graph node")
	}
	fmt.Printf("\nexpanding sub-graph node n%d [SubD]=%d:\n", subD.ID, subD.Value)

	em := c.Emulator(0)
	blk := art.Plan.ByFunc["SubD"]
	idxs := em.PrelogIndices(int(blk.ID))
	gd, err := c.Graph(0, idxs[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(controller.RenderFragment(gd, gd.LastNode().ID, 3))
}
