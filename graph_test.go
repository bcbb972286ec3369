package ppd

import (
	"io"
	"testing"

	"ppd/internal/eblock"
	"ppd/internal/parallel"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// TestControllerAllocBudget pins the debugging phase's setup cost to the
// run it analyses: building the controller (emulators, replay pool and
// the flat parallel graph) allocates no more objects than the logged run
// that produced the log (seed 1, quantum 40).
func TestControllerAllocBudget(t *testing.T) {
	for _, wl := range []*workloads.Workload{
		workloads.Relay(3, 15),
		workloads.TokenRing(4, 10),
		workloads.ProdCons(20),
	} {
		t.Run(wl.Name, func(t *testing.T) {
			prog, err := Compile(wl.Name+".mpl", wl.Src)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Seed: 1, Quantum: 40, Output: io.Discard}
			e, err := prog.RunLogged(opts)
			if err != nil {
				t.Fatal(err)
			}
			run := testing.AllocsPerRun(10, func() {
				v := vm.New(prog.art.Prog, vm.Options{Mode: vm.ModeLog, Seed: 1, Quantum: 40, Output: io.Discard})
				if err := v.Run(); err != nil {
					t.Fatal(err)
				}
			})
			ctl := testing.AllocsPerRun(10, func() {
				e.ctl = nil
				e.Controller()
			})
			t.Logf("Controller() %.0f allocations, logged run %.0f", ctl, run)
			if raceEnabled {
				t.Skip("the race detector instruments allocations")
			}
			if ctl > run {
				t.Errorf("Controller() allocates %.0f objects, more than the %.0f of the logged run it analyses", ctl, run)
			}
		})
	}
}

// graphBenchWorkloads are the sync-heavy shapes the parallel graph is
// built for: a relay ring, a token ring and a producer/consumer pipe.
func graphBenchWorkloads() []*workloads.Workload {
	return []*workloads.Workload{
		workloads.Relay(5, 30),
		workloads.TokenRing(4, 45),
		workloads.ProdCons(300),
	}
}

// BenchmarkParallelBuild times parallel.Build on a retained log — the
// graph build the Controller performs before any races question.
func BenchmarkParallelBuild(b *testing.B) {
	for _, wl := range graphBenchWorkloads() {
		art := mustCompile(b, wl, eblock.DefaultConfig())
		v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: 1, Quantum: 40, Output: io.Discard})
		if err := v.Run(); err != nil {
			b.Fatal(err)
		}
		b.Run(wl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parallel.Build(v.Log, len(art.Prog.Globals))
			}
		})
	}
}

// BenchmarkMonitoredRun times a logged run with the online race pipeline
// attached: the stream-mode builder and the frontier detector.
func BenchmarkMonitoredRun(b *testing.B) {
	for _, wl := range graphBenchWorkloads() {
		prog, err := Compile(wl.Name+".mpl", wl.Src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(wl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := prog.RunLogged(Options{Seed: 1, Monitor: true, Output: io.Discard}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
