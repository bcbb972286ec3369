// Top-level benchmarks: one testing.B target per experiment in DESIGN.md's
// index. The end-to-end numbers (answer latency, log_slowdown) come from
// perfbench (`bash perfbench/run.sh`).
//
//	go test -bench=. -benchmem
package ppd

import (
	"fmt"
	"math/rand"
	"testing"

	"ppd/internal/bitset"
	"ppd/internal/compile"
	"ppd/internal/controller"
	"ppd/internal/eblock"
	"ppd/internal/emulation"
	"ppd/internal/obs"
	"ppd/internal/parallel"
	"ppd/internal/race"
	"ppd/internal/replay"
	"ppd/internal/source"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

func mustCompile(b *testing.B, w *workloads.Workload, cfg eblock.Config) *compile.Artifacts {
	b.Helper()
	art, err := compile.CompileSource(w.Name, w.Src, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return art
}

func mustCompileBare(b *testing.B, w *workloads.Workload) *compile.Artifacts {
	b.Helper()
	art, err := compile.CompileBareSource(w.Name, w.Src)
	if err != nil {
		b.Fatal(err)
	}
	return art
}

func runVM(b *testing.B, art *compile.Artifacts, mode vm.Mode) *vm.VM {
	b.Helper()
	v := vm.New(art.Prog, vm.Options{Mode: mode, Quantum: 1000})
	if err := v.Run(); err != nil {
		b.Fatal(err)
	}
	return v
}

// --- E1: execution-time overhead of incremental logging -------------------

func benchOverhead(b *testing.B, w *workloads.Workload) {
	bare := mustCompileBare(b, w)
	inst := mustCompile(b, w, eblock.DefaultConfig())
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runVM(b, bare, vm.ModeRun)
		}
	})
	b.Run("logged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runVM(b, inst, vm.ModeLog)
		}
	})
	b.Run("fulltrace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runVM(b, inst, vm.ModeFullTrace)
		}
	})
}

func BenchmarkOverheadMatmul(b *testing.B)    { benchOverhead(b, workloads.Matmul(16)) }
func BenchmarkOverheadProdCons(b *testing.B)  { benchOverhead(b, workloads.ProdCons(600)) }
func BenchmarkOverheadTokenRing(b *testing.B) { benchOverhead(b, workloads.TokenRing(4, 100)) }
func BenchmarkOverheadDivide(b *testing.B)    { benchOverhead(b, workloads.Divide(11)) }

// Short sync-heavy runs, the size the end-to-end benchmark's triage draws:
// here a per-process fixed logging cost would outweigh the per-record one.
func BenchmarkOverheadRelay(b *testing.B)      { benchOverhead(b, workloads.Relay(3, 15)) }
func BenchmarkOverheadRacyTicker(b *testing.B) { benchOverhead(b, workloads.RacyTicker(2, 5)) }

// --- E15: execution hot path — ModeLog overhead over ModeRun ---------------

// BenchmarkExecLogOverhead measures the execution phase's logging overhead
// on the *same instrumented bytecode*: "normal" runs the program with the
// e-block markers present but inert (ModeRun), "logged" performs the
// paper's incremental tracing (ModeLog). The logged/normal time ratio is
// E15's headline number, and allocs/op isolates the per-e-block-boundary
// allocation cost that the arena/COW logging path removes.
func BenchmarkExecLogOverhead(b *testing.B) {
	for _, w := range workloads.Standard() {
		art := mustCompile(b, w, eblock.DefaultConfig())
		b.Run(w.Name+"/normal", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runVM(b, art, vm.ModeRun)
			}
		})
		b.Run(w.Name+"/logged", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runVM(b, art, vm.ModeLog)
			}
		})
	}
}

// --- E3: debugging-phase latency — emulate one interval -------------------

func BenchmarkEmulateEBlock(b *testing.B) {
	w := workloads.Divide(11)
	art := mustCompile(b, w, eblock.DefaultConfig())
	v := runVM(b, art, vm.ModeLog)
	em := emulation.New(art.Prog, v.Log.Books[0])
	idx := em.LastPrelog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Emulate(idx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: e-block granularity sweep -----------------------------------------

func BenchmarkEBlockGranularity(b *testing.B) {
	w := workloads.Matmul(16)
	for _, cfg := range []struct {
		name string
		c    eblock.Config
	}{
		{"func-only", eblock.Config{}},
		{"inline3", eblock.Config{LeafInlineThreshold: 3}},
		{"default", eblock.DefaultConfig()},
	} {
		art := mustCompile(b, w, cfg.c)
		b.Run(cfg.name, func(b *testing.B) {
			var v *vm.VM
			for i := 0; i < b.N; i++ {
				v = runVM(b, art, vm.ModeLog)
			}
			b.ReportMetric(float64(v.Log.Stats().TotalRecords()), "log-records")
		})
	}
}

// --- E8: race-detector scaling ---------------------------------------------

func benchRaceDetector(b *testing.B, detect func(*parallel.Graph) []*race.Race) {
	w := workloads.Sharded(8, 80)
	art := mustCompile(b, w, eblock.Config{})
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 3})
	if err := v.Run(); err != nil {
		b.Fatal(err)
	}
	g := parallel.Build(v.Log, len(art.Prog.Globals))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs := detect(g); len(rs) != 0 {
			b.Fatalf("sharded workload should be race-free, got %d", len(rs))
		}
	}
}

func BenchmarkRaceNaive(b *testing.B) { benchRaceDetector(b, race.Naive) }

// BenchmarkRaceDetect is E8's pruned detector and E13's detector half: the
// per-variable buckets sharded across a worker pool (workers=1 is the
// sequential scan). On a multi-core machine w>=4 should beat w=1 on
// workloads.Sharded(8, 80), and the output race set is golden-identical
// at every width (TestDetectorsEquivalence).
func BenchmarkRaceDetect(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchRaceDetector(b, func(g *parallel.Graph) []*race.Race {
				return race.Detect(g, race.Opts{Workers: workers})
			})
		})
	}
}

// --- E13: memoized emulation — the Controller's interval cache -------------

// BenchmarkEmulateCached measures a repeated Controller.Graph query served
// from the LRU cache; contrast with BenchmarkEmulateEBlock, which pays a
// full VM replay per call.
func BenchmarkEmulateCached(b *testing.B) {
	w := workloads.Divide(11)
	art := mustCompile(b, w, eblock.DefaultConfig())
	v := runVM(b, art, vm.ModeLog)
	c := controller.FromRun(art, v)
	idx, err := c.FocusInterval(0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Graph(0, idx); err != nil { // warm the cache
		b.Fatal(err)
	}
	before := c.Emulations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Graph(0, idx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if c.Emulations() != before {
		b.Fatalf("cached benchmark re-emulated: %d -> %d", before, c.Emulations())
	}
}

// --- E9: bit-mask vs. list set representation -------------------------------

func BenchmarkBitsetVsListSets(b *testing.B) {
	const universe = 512
	rng := rand.New(rand.NewSource(1))
	elems := make([]int, 96)
	for i := range elems {
		elems[i] = rng.Intn(universe)
	}
	bs1 := bitset.FromSlice(universe, elems[:48])
	bs2 := bitset.FromSlice(universe, elems[48:])
	ls1 := bitset.ListFromSlice(elems[:48])
	ls2 := bitset.ListFromSlice(elems[48:])
	b.Run("bitset-intersects", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = bs1.Intersects(bs2)
		}
	})
	b.Run("list-intersects", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ls1.Intersects(ls2)
		}
	})
	b.Run("bitset-union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			z := bs1.Clone()
			z.UnionWith(bs2)
		}
	})
	b.Run("list-union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			z := ls1.Clone()
			z.UnionWith(ls2)
		}
	})
}

// --- E10: state restoration ---------------------------------------------------

func BenchmarkRestore(b *testing.B) {
	w := workloads.Divide(11)
	art := mustCompile(b, w, eblock.DefaultConfig())
	v := runVM(b, art, vm.ModeLog)
	book := v.Log.Books[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay.RestoreAt(art.Prog, book, len(book.Records))
	}
}

// --- E2 is a size, not a time: assert the shape as a benchmark-guarded test ---

func BenchmarkLogVsTraceSize(b *testing.B) {
	for _, w := range workloads.Standard() {
		art := mustCompile(b, w, eblock.DefaultConfig())
		b.Run(w.Name, func(b *testing.B) {
			var vLog, vTr *vm.VM
			for i := 0; i < b.N; i++ {
				vLog = runVM(b, art, vm.ModeLog)
				vTr = runVM(b, art, vm.ModeFullTrace)
			}
			if vLog.Log.SizeBytes() >= vTr.Trace.SizeBytes() {
				b.Fatalf("%s: log (%d B) not smaller than trace (%d B)",
					w.Name, vLog.Log.SizeBytes(), vTr.Trace.SizeBytes())
			}
			b.ReportMetric(float64(vLog.Log.SizeBytes()), "log-bytes")
			b.ReportMetric(float64(vTr.Trace.SizeBytes()), "trace-bytes")
		})
	}
}

// --- E12: shared-prelog cross-write filtering (§5.5 ablation) ---------------

// BenchmarkShPrelogFilter is E12's ablation. The literal §5.5 compile
// (CompileUnfiltered) logs every shared read at every sync unit; the
// filtered one logs only variables another process may write. Each
// sub-benchmark times logged runs and reports the log's size as log-bytes.
func BenchmarkShPrelogFilter(b *testing.B) {
	for _, w := range []*workloads.Workload{workloads.Matmul(16), workloads.TokenRing(4, 100), workloads.ProdCons(600)} {
		filtered := mustCompile(b, w, eblock.DefaultConfig())
		literal, err := compile.CompileUnfiltered(source.NewFile(w.Name, w.Src), eblock.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			art  *compile.Artifacts
		}{{"filtered", filtered}, {"literal", literal}} {
			b.Run(w.Name+"/"+c.name, func(b *testing.B) {
				var v *vm.VM
				for i := 0; i < b.N; i++ {
					v = runVM(b, c.art, vm.ModeLog)
				}
				b.ReportMetric(float64(v.Log.SizeBytes()), "log-bytes")
			})
		}
	}
}

// --- E14: observability overhead --------------------------------------------

// BenchmarkObsOverhead proves the obs cost contract: with a nil sink the
// instrumented paths (vm logged run, parallel race detection) run at the
// same speed as before the layer existed — the disabled path is a nil check,
// not a measurement. Compare obs=off vs obs=on within each pair; the ISSUE
// acceptance bound is <= 2% for the off case relative to the seed.
func BenchmarkObsOverhead(b *testing.B) {
	w := workloads.Matmul(16)
	art := mustCompile(b, w, eblock.DefaultConfig())
	b.Run("vm/obs=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runVM(b, art, vm.ModeLog)
		}
	})
	b.Run("vm/obs=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 1000, Obs: obs.New()})
			if err := v.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})

	rw := workloads.Sharded(8, 80)
	rart := mustCompile(b, rw, eblock.Config{})
	rv := vm.New(rart.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 3})
	if err := rv.Run(); err != nil {
		b.Fatal(err)
	}
	g := parallel.Build(rv.Log, len(rart.Prog.Globals))
	b.Run("race/obs=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rs := race.Detect(g, race.Opts{Workers: 4}); len(rs) != 0 {
				b.Fatal("sharded workload should be race-free")
			}
		}
	})
	b.Run("race/obs=on", func(b *testing.B) {
		sink := obs.New()
		for i := 0; i < b.N; i++ {
			if rs := race.Detect(g, race.Opts{Workers: 4, Obs: sink}); len(rs) != 0 {
				b.Fatal("sharded workload should be race-free")
			}
		}
	})
}

// --- E17: parallel preparatory phase + persistent artifact cache ------------

// BenchmarkCompileParallel measures the cold preparatory phase at each
// fan-out width on the widest workload (Sharded generates one function per
// worker, so the per-function passes dominate). sequential is the E17
// baseline; on a multi-core machine workers>=4 should show the >=2x cold
// speedup the acceptance criteria ask for.
func BenchmarkCompileParallel(b *testing.B) {
	w := workloads.Sharded(64, 4)
	cfg := eblock.DefaultConfig()
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := compile.CompileSequential(source.NewFile(w.Name, w.Src), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compile.CompileWorkers(source.NewFile(w.Name, w.Src), cfg, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileCached contrasts a cold compile (full pipeline + store)
// with a warm one (content-hash lookup, decode, done). Warm should beat
// cold by >=10x on the wide workload.
func BenchmarkCompileCached(b *testing.B) {
	w := workloads.Sharded(64, 4)
	cfg := eblock.DefaultConfig()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := compile.CompileWorkers(source.NewFile(w.Name, w.Src), cfg, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		if _, err := compile.CompileCached(source.NewFile(w.Name, w.Src), cfg, dir, 0, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			art, err := compile.CompileCached(source.NewFile(w.Name, w.Src), cfg, dir, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			if art.Hydrated() {
				b.Fatal("warm compile ran the pipeline")
			}
		}
	})
}

// --- E23: flowback at the focus interval -------------------------------------

// BenchmarkFlowbackFocus measures the debugging phase's first question on
// the sync-heavy workloads: each op builds a fresh controller (so every
// interval misses the cache), emulates and builds every process's focus
// interval, and renders its flowback fragment.
func BenchmarkFlowbackFocus(b *testing.B) {
	for _, w := range []*workloads.Workload{
		workloads.Relay(4, 30), workloads.TokenRing(3, 30), workloads.ProdCons(150),
	} {
		b.Run(w.Name, func(b *testing.B) {
			art := mustCompile(b, w, eblock.DefaultConfig())
			v := runVM(b, art, vm.ModeLog)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := controller.FromRun(art, v)
				for pid := 0; pid < c.NumProcs(); pid++ {
					g, _, err := c.CurrentGraph(pid)
					if err != nil {
						b.Fatal(err)
					}
					if controller.RenderFragment(g, c.FocusNode(g, pid).ID, 4) == "" {
						b.Fatal("empty flowback fragment")
					}
				}
			}
		})
	}
}
