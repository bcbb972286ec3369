package race

import (
	"strings"
	"testing"

	"ppd/internal/analysis"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/obs"
	"ppd/internal/parallel"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// pruneCases covers every standard workload plus the conflict-sparse
// sharded shape, both racy-counter variants, and the fully lock-guarded
// counter (whose mask the lockset analysis empties), across two seeds —
// the matrix the masked detectors must be golden-equivalent on.
func pruneCases() []*workloads.Workload {
	wls := workloads.Standard()
	wls = append(wls,
		workloads.Sharded(4, 40),
		workloads.RacyCounter(3, 25, false),
		workloads.RacyCounter(3, 25, true),
		workloads.GuardedCounter(3, 25),
	)
	return wls
}

func renderAll(rs []*Race) string {
	var sb strings.Builder
	for _, r := range rs {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestMaskedEquivalentToUnfiltered pins the static filter's soundness
// end to end: on every workload and seed, the masked detector, sequential
// and sharded, reports byte-identical races to the unfiltered one.
func TestMaskedEquivalentToUnfiltered(t *testing.T) {
	for _, wl := range pruneCases() {
		for _, seed := range []int64{0, 3} {
			art, err := compile.CompileSource(wl.Name, wl.Src, eblock.DefaultConfig())
			if err != nil {
				t.Fatalf("compile %s: %v", wl.Name, err)
			}
			v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: seed, Quantum: 7})
			if err := v.Run(); err != nil {
				t.Fatalf("run %s: %v", wl.Name, err)
			}
			g := parallel.Build(v.Log, len(art.Prog.Globals))
			mask := analysis.Analyze(art.PDG, art.Prog, nil).Conflicts.Mask()

			want := renderAll(Detect(g, Opts{Workers: 1}))
			for _, workers := range []int{1, 4} {
				if got := renderAll(Detect(g, Opts{Mask: mask, Workers: workers})); got != want {
					t.Errorf("%s seed %d workers %d: masked Detect diverges\nmask: %s\ngot:\n%swant:\n%s",
						wl.Name, seed, workers, mask, got, want)
				}
			}
		}
	}
}

// TestMaskPrunesShardedBuckets pins the payoff: the sharded workload's
// per-worker shards have no static conflicts, so the masked detector
// skips their buckets entirely (and still agrees with the unfiltered
// detector, per the equivalence test above).
func TestMaskPrunesShardedBuckets(t *testing.T) {
	wl := workloads.Sharded(4, 40)
	art, err := compile.CompileSource(wl.Name, wl.Src, eblock.Config{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: 0, Quantum: 3})
	if err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	g := parallel.Build(v.Log, len(art.Prog.Globals))
	res := analysis.Analyze(art.PDG, art.Prog, nil)
	mask := res.Conflicts.Mask()

	sink := obs.New()
	races := Detect(g, Opts{Mask: mask, Workers: 1, Obs: sink})
	if len(races) != 0 {
		t.Fatalf("sharded workload should be race-free, got %d races", len(races))
	}
	snap := sink.Snapshot()
	if snap.Counters["race.buckets.pruned"] == 0 {
		t.Fatalf("expected pruned buckets on the conflict-sparse workload; counters: %v", snap.Counters)
	}
	if snap.Counters["race.pairs"] != 0 {
		t.Fatalf("all accessed variables are conflict-free; expected 0 candidate pairs, got %d",
			snap.Counters["race.pairs"])
	}
}

// TestLocksetPrunesGuardedCounter pins the abstract interpreter's
// contribution to the static filter: on the guarded-counter workload the
// lockset analysis proves every access to the counter holds m, so the
// conflict mask is empty, the detector scans zero candidate pairs, and
// the safe-counter control (same program, but main reads the counter
// without the lock) keeps the counter in its mask.
func TestLocksetPrunesGuardedCounter(t *testing.T) {
	wl := workloads.GuardedCounter(3, 25)
	art, err := compile.CompileSource(wl.Name, wl.Src, eblock.DefaultConfig())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res := analysis.Analyze(art.PDG, art.Prog, nil)
	if len(res.Conflicts.Guarded) == 0 {
		t.Fatal("lockset analysis pruned nothing on the fully guarded counter")
	}
	mask := res.Conflicts.Mask()
	if !mask.IsEmpty() {
		t.Fatalf("guarded counter should empty the conflict mask, got %s", mask)
	}

	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: 0, Quantum: 7})
	if err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	g := parallel.Build(v.Log, len(art.Prog.Globals))
	sink := obs.New()
	if races := Detect(g, Opts{Mask: mask, Workers: 1, Obs: sink}); len(races) != 0 {
		t.Fatalf("guarded counter must be race-free, got %d races", len(races))
	}
	if pairs := sink.Snapshot().Counters["race.pairs"]; pairs != 0 {
		t.Fatalf("lock-guarded variable still scanned: %d candidate pairs", pairs)
	}

	control := workloads.RacyCounter(3, 25, true)
	cart, err := compile.CompileSource(control.Name, control.Src, eblock.DefaultConfig())
	if err != nil {
		t.Fatalf("compile control: %v", err)
	}
	if m := analysis.Analyze(cart.PDG, cart.Prog, nil).Conflicts.Mask(); m.IsEmpty() {
		t.Fatal("safe-counter control should keep its counter in the mask (main reads it unlocked)")
	}
}

// TestRaceNamesFromGraph checks satellite coverage for named reports:
// when the graph carries variable names, Race.String and Report print
// them instead of raw GlobalIDs.
func TestRaceNamesFromGraph(t *testing.T) {
	wl := workloads.RacyCounter(3, 10, false)
	art, err := compile.CompileSource(wl.Name, wl.Src, eblock.Config{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: 0, Quantum: 3})
	if err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	g := parallel.Build(v.Log, len(art.Prog.Globals))
	names := make([]string, len(art.Prog.Globals))
	for gid, def := range art.Prog.Globals {
		names[gid] = def.Name
	}
	g.VarNames = names
	races := Detect(g, Opts{Workers: 1})
	if len(races) == 0 {
		t.Fatal("expected races on the unprotected counter")
	}
	for _, r := range races {
		if !strings.Contains(r.String(), "counter") {
			t.Fatalf("Race.String should name the variable, got %q", r.String())
		}
		if strings.Contains(r.String(), "[0]") {
			t.Fatalf("Race.String still prints raw IDs: %q", r.String())
		}
	}
	rep := Report(races, nil)
	if !strings.Contains(rep, "counter") {
		t.Fatalf("Report without a name func should use graph names:\n%s", rep)
	}
}

// BenchmarkRacePruned measures the masked detector on the conflict-sparse
// sharded workload against the unfiltered baseline (BenchmarkRaceDetect's
// workers=1 shape); E16 reports the same comparison.
func BenchmarkRacePruned(b *testing.B) {
	wl := workloads.Sharded(8, 120)
	art, err := compile.CompileSource(wl.Name, wl.Src, eblock.Config{})
	if err != nil {
		b.Fatal(err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: 0, Quantum: 3})
	if err := v.Run(); err != nil {
		b.Fatal(err)
	}
	g := parallel.Build(v.Log, len(art.Prog.Globals))
	mask := analysis.Analyze(art.PDG, art.Prog, nil).Conflicts.Mask()
	b.Run("unfiltered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Detect(g, Opts{Workers: 1})
		}
	})
	b.Run("masked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Detect(g, Opts{Mask: mask, Workers: 1})
		}
	})
}
