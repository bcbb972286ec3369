package controller

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/dynpdg"
	"ppd/internal/eblock"
	"ppd/internal/mplgen"
	"ppd/internal/obs"
	"ppd/internal/source"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// determinismCorpus is the standard workload families at test sizes, the
// relay pipeline, and generated parallel and racy programs.
func determinismCorpus() []*workloads.Workload {
	out := []*workloads.Workload{
		workloads.Matmul(6), workloads.ProdCons(60), workloads.TokenRing(3, 20),
		workloads.Divide(6), workloads.Histo(10), workloads.Relay(4, 30),
	}
	for seed := int64(0); seed < 6; seed++ {
		out = append(out,
			&workloads.Workload{Name: fmt.Sprintf("mplgen-parallel-%d", seed), Src: mplgen.Generate(seed, mplgen.ParallelConfig())},
			&workloads.Workload{Name: fmt.Sprintf("mplgen-racy-%d", seed), Src: mplgen.Generate(seed, mplgen.RacyConfig())})
	}
	return out
}

// TestFlowbackDeterministic rebuilds intervals many times and requires
// byte-identical graphs and flowback fragments: the builder's data edges
// have a defined order (ascending source node), so nothing may depend on
// map iteration.
func TestFlowbackDeterministic(t *testing.T) {
	const builds = 20
	for _, w := range determinismCorpus() {
		art, err := compile.CompileSource(w.Name, w.Src, eblock.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: 1})
		_ = v.Run()
		c := FromRun(art, v)
		for pid := 0; pid < c.NumProcs(); pid++ {
			focus, err := c.FocusInterval(pid)
			if err != nil {
				continue
			}
			idxs := []int{focus}
			if last := c.Emulator(pid).LastPrelog(); last != focus {
				idxs = append(idxs, last)
			}
			for _, idx := range idxs {
				var wantGraph, wantFrag string
				for i := 0; i < builds; i++ {
					c.DropCache()
					g, err := c.Graph(pid, idx)
					if err != nil {
						t.Fatalf("%s P%d interval %d: %v", w.Name, pid+1, idx, err)
					}
					gs, frag := g.String(), RenderFragment(g, c.FocusNode(g, pid).ID, 4)
					if i == 0 {
						wantGraph, wantFrag = gs, frag
						continue
					}
					if gs != wantGraph || frag != wantFrag {
						t.Fatalf("%s P%d interval %d: build %d differs from build 0", w.Name, pid+1, idx, i)
					}
				}
			}
		}
	}
}

// flowbackAllocCeiling bounds the allocations of one emulate-and-build of
// prodcons-150's consumer focus interval (4359 nodes, 13060 edges). The
// streaming builder makes 745; the stored-trace builder with map
// adjacency made about 75k.
const flowbackAllocCeiling = 1000

func TestFlowbackAllocCeiling(t *testing.T) {
	w := workloads.ProdCons(150)
	art, err := compile.CompileSource(w.Name, w.Src, eblock.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 1000})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	c := FromRun(art, v)
	const pid = 2 // the consumer
	idx, err := c.FocusInterval(pid)
	if err != nil {
		t.Fatal(err)
	}
	var g *dynpdg.Graph
	allocs := testing.AllocsPerRun(10, func() {
		c.DropCache()
		g, err = c.Graph(pid, idx)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) < 4000 {
		t.Fatalf("focus interval has %d nodes; the workload changed and the ceiling is stale", len(g.Nodes))
	}
	if allocs > flowbackAllocCeiling {
		t.Errorf("emulate+build allocated %.0f times, ceiling %d", allocs, flowbackAllocCeiling)
	}
	t.Logf("%d nodes, %d edges, %.0f allocations", len(g.Nodes), len(g.Edges), allocs)
}

// TestIntervalCacheHoldsNoTrace checks that the flowback path streams: a
// cached interval's result keeps the scalar fields and no trace.
func TestIntervalCacheHoldsNoTrace(t *testing.T) {
	w := workloads.Relay(3, 15)
	art, err := compile.CompileSource(w.Name, w.Src, eblock.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog})
	_ = v.Run()
	c := FromRun(art, v)
	for pid := 0; pid < c.NumProcs(); pid++ {
		g, idx, err := c.CurrentGraph(pid)
		if err != nil {
			t.Fatal(err)
		}
		res := c.Result(pid, idx)
		switch {
		case res == nil:
			t.Fatalf("P%d: no cached result", pid+1)
		case res.Trace != nil:
			t.Errorf("P%d: the interval cache holds a %d-event trace", pid+1, res.Trace.Len())
		case res.RecordsConsumed == 0 || res.Globals == nil || len(g.Nodes) == 0:
			t.Errorf("P%d: empty cached result %+v", pid+1, res)
		}
	}
}

// TestRacesVetCachedUncached checks that the race report and the vet
// result are byte-identical whether the program was compiled fresh or
// loaded from the artifact cache, and that Races on a fresh compile reuses
// the compile-time abstract-interpretation facts instead of rerunning the
// engine.
func TestRacesVetCachedUncached(t *testing.T) {
	dir := t.TempDir()
	srcs := map[string]string{}
	for _, w := range workloads.Standard() {
		srcs[w.Name+".mpl"] = w.Src
	}
	paths, err := filepath.Glob("../../testdata/*.mpl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("testdata programs: %v (%d found)", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(data)
	}
	observe := func(art *compile.Artifacts, sink *obs.Sink) (races, vet string) {
		v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: 3})
		_ = v.Run()
		c := FromRunConfig(art, v, Config{Obs: sink})
		races = c.RaceReport()
		return races, art.Vet(nil).Text()
	}
	for name, src := range srcs {
		file := source.NewFile(name, src)
		fresh, err := compile.Compile(file, eblock.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sink := obs.New()
		wantRaces, wantVet := observe(fresh, sink)
		if _, ok := sink.Snapshot().Timers["analysis.absint"]; ok {
			t.Errorf("%s: Races reran abstract interpretation on a fresh compile", name)
		}
		for _, pass := range []string{"cold", "warm"} {
			art, err := compile.CompileCached(file, eblock.DefaultConfig(), dir, 0, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", name, pass, err)
			}
			if err := art.Hydrate(); err != nil {
				t.Fatalf("%s %s: hydrate: %v", name, pass, err)
			}
			if pass == "warm" && art.Facts != nil {
				t.Errorf("%s: hydrated artifacts recomputed abstract-interpretation facts", name)
			}
			races, vet := observe(art, nil)
			if races != wantRaces {
				t.Errorf("%s %s: race report differs:\n%s\nwant:\n%s", name, pass, races, wantRaces)
			}
			if vet != wantVet {
				t.Errorf("%s %s: vet differs:\n%s\nwant:\n%s", name, pass, vet, wantVet)
			}
		}
	}
}
