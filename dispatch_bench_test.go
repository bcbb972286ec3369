// BenchmarkDispatch: the E18 matrix — fused vs unfused interpretation of
// every standard workload, under ModeRun (pure dispatch cost) and ModeLog
// (dispatch cost with the logging writes in the loop). `make bench-smoke`
// runs one iteration of each.
package ppd

import (
	"testing"

	"ppd/internal/bytecode"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

func mustCompileFusion(b *testing.B, w *workloads.Workload, tab *bytecode.FusionTable) *compile.Artifacts {
	b.Helper()
	art, err := compile.CompileFusedSource(w.Name, w.Src, eblock.DefaultConfig(), tab)
	if err != nil {
		b.Fatal(err)
	}
	return art
}

func benchDispatch(b *testing.B, w *workloads.Workload) {
	fused := mustCompileFusion(b, w, bytecode.DefaultFusionTable())
	plain := mustCompileFusion(b, w, nil)
	for _, mode := range []vm.Mode{vm.ModeRun, vm.ModeLog} {
		b.Run(mode.String()+"/unfused", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runVM(b, plain, mode)
			}
		})
		b.Run(mode.String()+"/fused", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runVM(b, fused, mode)
			}
		})
	}
}

func BenchmarkDispatchMatmul(b *testing.B)    { benchDispatch(b, workloads.Matmul(16)) }
func BenchmarkDispatchProdCons(b *testing.B)  { benchDispatch(b, workloads.ProdCons(600)) }
func BenchmarkDispatchTokenRing(b *testing.B) { benchDispatch(b, workloads.TokenRing(4, 100)) }
func BenchmarkDispatchDivide(b *testing.B)    { benchDispatch(b, workloads.Divide(11)) }
