package mplgen

import (
	"bytes"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/emulation"
	"ppd/internal/logging"
	"ppd/internal/parallel"
	"ppd/internal/race"
	"ppd/internal/replay"
	"ppd/internal/vm"
)

// TestGeneratedProgramsDifferential is the repo's broadest property test:
// for a sweep of generated programs it checks that
//
//  1. bare, logged, and full-trace executions print identical output
//     (instrumentation must never change behaviour);
//  2. every completed interval in the log emulates to completion without
//     divergence (the §5 machinery is total over reachable logs);
//  3. folding the postlogs reproduces the VM's final global state (§5.7);
//  4. the binary log codec round-trips the real log;
//  5. both race detectors agree (parallel programs).
func TestGeneratedProgramsDifferential(t *testing.T) {
	type scenario struct {
		name string
		cfg  Config
		n    int
	}
	scenarios := []scenario{
		{"sequential", DefaultConfig(), 40},
		{"deep", Config{Funcs: 4, Globals: 4, MaxStmts: 6, MaxDepth: 3, MaxExprDepth: 3}, 25},
		{"parallel", ParallelConfig(), 25},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(0); seed < int64(sc.n); seed++ {
				src := Generate(seed, sc.cfg)
				checkProgram(t, seed, src, sc.cfg.Parallel)
				if t.Failed() {
					t.Logf("seed %d program:\n%s", seed, src)
					return
				}
			}
		})
	}
}

func checkProgram(t *testing.T, seed int64, src string, parallelMode bool) {
	t.Helper()
	inst, err := compile.CompileSource("gen.mpl", src, eblock.DefaultConfig())
	if err != nil {
		t.Errorf("seed %d: compile: %v", seed, err)
		return
	}
	bare, err := compile.CompileBareSource("gen.mpl", src)
	if err != nil {
		t.Errorf("seed %d: compile bare: %v", seed, err)
		return
	}

	runOut := func(art *compile.Artifacts, mode vm.Mode) (string, *vm.VM) {
		var out bytes.Buffer
		v := vm.New(art.Prog, vm.Options{Mode: mode, Quantum: 3, Output: &out})
		if err := v.Run(); err != nil {
			t.Errorf("seed %d mode %v: %v", seed, mode, err)
			return "", nil
		}
		return out.String(), v
	}

	// 1. Output equivalence across instrumentation.
	bareOut, _ := runOut(bare, vm.ModeRun)
	logOut, vLog := runOut(inst, vm.ModeLog)
	traceOut, _ := runOut(inst, vm.ModeFullTrace)
	if t.Failed() || vLog == nil {
		return
	}
	if bareOut != logOut || logOut != traceOut {
		t.Errorf("seed %d: outputs differ:\nbare:  %q\nlog:   %q\ntrace: %q",
			seed, bareOut, logOut, traceOut)
		return
	}

	// 2. Every interval of every process emulates to completion.
	for pid, book := range vLog.Log.Books {
		em := emulation.New(inst.Prog, book)
		for ri, r := range book.Records {
			if r.Kind != logging.RecPrelog {
				continue
			}
			res, err := em.Emulate(ri)
			if err != nil {
				t.Errorf("seed %d P%d interval@%d: %v", seed, pid, ri, err)
				return
			}
			if res.Err != nil || !res.Completed {
				t.Errorf("seed %d P%d interval@%d: err=%v completed=%t",
					seed, pid, ri, res.Err, res.Completed)
				return
			}
		}
	}

	// 3. Restoration equals the live final state (fold every book: each
	// process's view of shared state converges at exit for these
	// synchronized programs; use process 0 whose main sees the final join).
	snap := replay.RestoreAt(inst.Prog, vLog.Log.Books[0], vLog.Log.Books[0].Len())
	for gid, want := range vLog.Globals {
		if inst.Prog.Globals[gid].Kind != 0 { // only data globals
			continue
		}
		got := snap.Globals[gid]
		if want.IsArray() {
			for i := range want.Arr {
				if got.Arr[i] != want.Arr[i] {
					t.Errorf("seed %d: restored %s[%d]=%d, want %d",
						seed, inst.Prog.Globals[gid].Name, i, got.Arr[i], want.Arr[i])
					return
				}
			}
		} else if got.Int != want.Int {
			// In parallel mode a worker's final write can postdate main's
			// last shared prelog only if unsynchronized — generated
			// programs join before reading, so mismatch is a real bug.
			t.Errorf("seed %d: restored %s=%d, want %d",
				seed, inst.Prog.Globals[gid].Name, got.Int, want.Int)
			return
		}
	}

	// 4. Codec round trip.
	var buf bytes.Buffer
	if err := vLog.Log.Write(&buf); err != nil {
		t.Errorf("seed %d: write log: %v", seed, err)
		return
	}
	loaded, err := logging.Read(&buf)
	if err != nil {
		t.Errorf("seed %d: read log: %v", seed, err)
		return
	}
	if loaded.NumProcs() != vLog.Log.NumProcs() {
		t.Errorf("seed %d: round trip lost books", seed)
		return
	}

	// 5. Race detectors agree.
	if parallelMode {
		g := parallel.Build(vLog.Log, len(inst.Prog.Globals))
		naive, indexed := race.Naive(g), race.Detect(g, race.Opts{Workers: 1})
		if len(naive) != len(indexed) {
			t.Errorf("seed %d: naive=%d indexed=%d races", seed, len(naive), len(indexed))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		a := Generate(seed, DefaultConfig())
		b := Generate(seed, DefaultConfig())
		if a != b {
			t.Fatalf("seed %d: generation is nondeterministic", seed)
		}
	}
	if Generate(1, DefaultConfig()) == Generate(2, DefaultConfig()) {
		t.Error("different seeds should differ")
	}
}

// TestGeneratedRacyPrograms seeds real data races (workers without the
// mutex) and checks that both detectors find them and agree exactly.
func TestGeneratedRacyPrograms(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		src := Generate(seed, RacyConfig())
		art, err := compile.CompileSource("racy.mpl", src, eblock.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 1})
		if err := v.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g := parallel.Build(v.Log, len(art.Prog.Globals))
		naive, indexed := race.Naive(g), race.Detect(g, race.Opts{Workers: 1})
		if len(indexed) == 0 {
			t.Errorf("seed %d: unsynchronized workers must race\n%s", seed, src)
			continue
		}
		if len(naive) != len(indexed) {
			t.Errorf("seed %d: naive=%d indexed=%d", seed, len(naive), len(indexed))
			continue
		}
		for i := range naive {
			if naive[i].Kind != indexed[i].Kind ||
				naive[i].E1.ID != indexed[i].E1.ID || naive[i].E2.ID != indexed[i].E2.ID {
				t.Errorf("seed %d: race %d differs", seed, i)
			}
		}
	}
}
