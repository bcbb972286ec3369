package race

import (
	"fmt"
	"strings"
	"testing"

	"ppd/internal/bitset"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/obs"
	"ppd/internal/parallel"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

func detect(t *testing.T, src string, opts vm.Options) ([]*Race, *parallel.Graph, *compile.Artifacts) {
	t.Helper()
	art, err := compile.CompileSource("test.mpl", src, eblock.Config{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opts.Mode = vm.ModeLog
	v := vm.New(art.Prog, opts)
	if err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	g := parallel.Build(v.Log, len(art.Prog.Globals))
	return Indexed(g), g, art
}

// TestSection63Race reproduces the paper's §6.3 example: SV written in
// edge e1 (P1) and read in edge e3 (P3), properly ordered through
// synchronization — race-free. Adding an unsynchronized write in edge e2
// (P2) creates a race.
func TestSection63RaceFreeCase(t *testing.T) {
	src := `
shared SV;
sem s1 = 0;
sem done = 0;
func p1() {
	SV = 10;
	V(s1);
	V(done);
}
func p3() {
	P(s1);
	print(SV);
	V(done);
}
func main() {
	spawn p1();
	spawn p3();
	P(done);
	P(done);
}`
	races, g, _ := detect(t, src, vm.Options{Quantum: 1})
	if len(races) != 0 {
		t.Errorf("expected race-free instance, got:\n%s\ngraph:\n%s",
			Report(races, func(i int) string { return "g" }), g)
	}
	if !RaceFree(g) {
		t.Error("RaceFree must agree")
	}
}

func TestSection63RaceCase(t *testing.T) {
	// Same as above plus p2's unsynchronized write to SV: now the write in
	// p2 races with both p1's write and p3's read.
	src := `
shared SV;
sem s1 = 0;
sem done = 0;
func p1() {
	SV = 10;
	V(s1);
	V(done);
}
func p2() {
	SV = 20;
	V(done);
}
func p3() {
	P(s1);
	print(SV);
	V(done);
}
func main() {
	spawn p1();
	spawn p2();
	spawn p3();
	P(done);
	P(done);
	P(done);
}`
	races, g, art := detect(t, src, vm.Options{Quantum: 1})
	if len(races) == 0 {
		t.Fatalf("expected races, found none:\n%s", g)
	}
	kinds := map[Conflict]bool{}
	for _, r := range races {
		kinds[r.Kind] = true
		for _, v := range r.Vars {
			if art.Info.Globals[v].Name != "SV" {
				t.Errorf("race on %s, want SV", art.Info.Globals[v].Name)
			}
		}
	}
	if !kinds[WriteWrite] {
		t.Error("missing write/write race (p1 vs p2)")
	}
	if !kinds[WriteRead] && !kinds[ReadWrite] {
		t.Error("missing write/read race (p2 vs p3)")
	}
}

func TestProtectedCounterRaceFree(t *testing.T) {
	src := `
shared counter;
sem m = 1;
sem done = 0;
func w() {
	var i = 0;
	while (i < 5) {
		P(m);
		counter = counter + 1;
		V(m);
		i = i + 1;
	}
	V(done);
}
func main() {
	spawn w();
	spawn w();
	P(done);
	P(done);
	print(counter);
}`
	for _, seed := range []int64{0, 1, 9} {
		races, _, _ := detect(t, src, vm.Options{Quantum: 1, Seed: seed})
		if len(races) != 0 {
			t.Errorf("seed %d: mutex-protected counter reported racy: %v", seed, races)
		}
	}
}

func TestUnprotectedCounterRaces(t *testing.T) {
	src := `
shared counter;
sem done = 0;
func w() {
	counter = counter + 1;
	V(done);
}
func main() {
	spawn w();
	spawn w();
	P(done);
	P(done);
}`
	races, _, _ := detect(t, src, vm.Options{Quantum: 1})
	if len(races) == 0 {
		t.Fatal("unprotected counter must race")
	}
	// Both write/write and read/write conflicts exist.
	kinds := map[Conflict]bool{}
	for _, r := range races {
		kinds[r.Kind] = true
	}
	if !kinds[WriteWrite] {
		t.Error("missing write/write")
	}
}

func TestNaiveAndIndexedAgree(t *testing.T) {
	srcs := []string{
		// racy
		`
shared a; shared b;
sem done = 0;
func w1() { a = 1; b = a + 1; V(done); }
func w2() { b = 2; a = b * 3; V(done); }
func main() { spawn w1(); spawn w2(); P(done); P(done); }`,
		// race-free
		`
shared a;
sem m = 1;
sem done = 0;
func w() { P(m); a = a + 1; V(m); V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); }`,
		// disjoint variables: no conflicts at all
		`
shared a; shared b;
sem done = 0;
func w1() { a = 1; V(done); }
func w2() { b = 2; V(done); }
func main() { spawn w1(); spawn w2(); P(done); P(done); }`,
	}
	for i, src := range srcs {
		for _, seed := range []int64{0, 4} {
			art, err := compile.CompileSource("agree.mpl", src, eblock.Config{})
			if err != nil {
				t.Fatal(err)
			}
			v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: seed, Quantum: 1})
			if err := v.Run(); err != nil {
				t.Fatal(err)
			}
			g := parallel.Build(v.Log, len(art.Prog.Globals))
			naive := Naive(g)
			indexed := Indexed(g)
			if len(naive) != len(indexed) {
				t.Errorf("src %d seed %d: naive=%d indexed=%d races", i, seed, len(naive), len(indexed))
				continue
			}
			for k := range naive {
				if naive[k].key() != indexed[k].key() || naive[k].Kind != indexed[k].Kind {
					t.Errorf("src %d seed %d: race %d differs: %v vs %v", i, seed, k, naive[k], indexed[k])
				}
			}
		}
	}
}

func TestRaceOnArray(t *testing.T) {
	src := `
shared buf[4];
sem done = 0;
func w(i int) { buf[i] = i; V(done); }
func main() {
	spawn w(0);
	spawn w(1);
	P(done);
	P(done);
}`
	races, _, _ := detect(t, src, vm.Options{Quantum: 1})
	// Arrays are treated as single variables (conservative): concurrent
	// element writes report as a potential write/write race.
	if len(races) == 0 {
		t.Error("concurrent array writes should report a (conservative) race")
	}
}

func TestMessagePassingOrdersAccesses(t *testing.T) {
	src := `
shared sv;
chan c;
func producer() {
	sv = 99;
	send(c, 1);
}
func main() {
	spawn producer();
	var x = recv(c);
	print(sv + x);
}`
	races, _, _ := detect(t, src, vm.Options{Quantum: 1})
	if len(races) != 0 {
		t.Errorf("message-ordered accesses reported racy: %v", races)
	}
}

func TestReportRendering(t *testing.T) {
	e1 := &parallel.InternalEdge{ID: 0, PID: 0, Reads: *bitset.New(1), Writes: *bitset.FromSlice(1, []int{0})}
	e2 := &parallel.InternalEdge{ID: 1, PID: 1, Reads: *bitset.New(1), Writes: *bitset.FromSlice(1, []int{0})}
	r := &Race{E1: e1, E2: e2, Kind: WriteWrite, Vars: []int{0}}
	got := Report([]*Race{r}, func(int) string { return "SV" })
	if !strings.Contains(got, "write/write") || !strings.Contains(got, "SV") {
		t.Errorf("report = %s", got)
	}
	empty := Report(nil, func(int) string { return "" })
	if !strings.Contains(empty, "race-free") {
		t.Errorf("empty report = %s", empty)
	}
	_ = logging.OpP
}

// TestDetectorsEquivalence is the cross-detector golden contract: Naive,
// Indexed, and Parallel (at several worker counts) must return identical
// race sets — same order, same pairs, same kinds, same variables — on every
// standard workload and on a seeded racy one. Determinism is the product:
// the parallel detector is only admissible because of this test.
func TestDetectorsEquivalence(t *testing.T) {
	type caseDef struct {
		wl      *workloads.Workload
		quantum int
		seed    int64
	}
	var cases []caseDef
	for _, wl := range workloads.Standard() {
		cases = append(cases, caseDef{wl, 3, 0})
	}
	cases = append(cases,
		caseDef{workloads.RacyCounter(4, 6, false), 1, 0},
		caseDef{workloads.RacyCounter(4, 6, false), 1, 7},
		caseDef{workloads.RacyCounter(3, 5, true), 1, 3},
		caseDef{workloads.Sharded(4, 8), 3, 0},
	)
	for _, tc := range cases {
		art, err := compile.CompileSource(tc.wl.Name, tc.wl.Src, eblock.Config{})
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.wl.Name, err)
		}
		v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: tc.quantum, Seed: tc.seed})
		if err := v.Run(); err != nil {
			t.Fatalf("%s: run: %v", tc.wl.Name, err)
		}
		g := parallel.Build(v.Log, len(art.Prog.Globals))
		want := Indexed(g)
		if naive := Naive(g); !sameRaces(want, naive) {
			t.Errorf("%s seed %d: Naive diverges from Indexed (%d vs %d races)",
				tc.wl.Name, tc.seed, len(naive), len(want))
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got := Parallel(g, workers)
			if !sameRaces(want, got) {
				t.Errorf("%s seed %d workers %d: Parallel diverges from Indexed (%d vs %d races)",
					tc.wl.Name, tc.seed, workers, len(got), len(want))
			}
		}
	}
}

// sameRaces compares two detector outputs element-wise: pair, kind, and
// conflicting variables must all match in order.
func sameRaces(a, b []*Race) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key() != b[i].key() {
			return false
		}
		if len(a[i].Vars) != len(b[i].Vars) {
			return false
		}
		for j := range a[i].Vars {
			if a[i].Vars[j] != b[i].Vars[j] {
				return false
			}
		}
	}
	return true
}

// TestRacyCounterHasRacesAcrossDetectors seeds a genuinely racy workload
// and checks all three detectors agree it races.
func TestRacyCounterHasRacesAcrossDetectors(t *testing.T) {
	wl := workloads.RacyCounter(3, 4, false)
	art, err := compile.CompileSource(wl.Name, wl.Src, eblock.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 1})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	g := parallel.Build(v.Log, len(art.Prog.Globals))
	n, i, p := Naive(g), Indexed(g), Parallel(g, 4)
	if len(i) == 0 {
		t.Fatal("unprotected counter must race")
	}
	if !sameRaces(i, n) || !sameRaces(i, p) {
		t.Errorf("detectors disagree: naive=%d indexed=%d parallel=%d", len(n), len(i), len(p))
	}
}

func TestIndexedObsCountersAndEquivalence(t *testing.T) {
	src := `
shared a;
shared b;
sem done = 0;
func w() { a = a + 1; b = b + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); }`
	want, g, _ := detect(t, src, vm.Options{Quantum: 1})
	if len(want) == 0 {
		t.Fatal("test program must race")
	}
	sink := obs.New()
	got := IndexedObs(g, sink)
	if Report(got, gidName) != Report(want, gidName) {
		t.Errorf("IndexedObs != Indexed:\n%s\nvs\n%s",
			Report(got, gidName), Report(want, gidName))
	}
	snap := sink.Snapshot()
	if n := snap.Counter("race.runs"); n != 1 {
		t.Errorf("race.runs = %d, want 1", n)
	}
	if n := snap.Counter("race.races"); n != int64(len(want)) {
		t.Errorf("race.races = %d, want %d", n, len(want))
	}
	if n := snap.Counter("race.pairs"); n < int64(len(want)) {
		t.Errorf("race.pairs = %d, want >= %d (every race was a checked pair)", n, len(want))
	}
	if snap.Timer("debug.race").Count != 1 {
		t.Error("debug.race scope not observed")
	}
}

func TestParallelObsMatchesIndexedObs(t *testing.T) {
	wl := workloads.Sharded(4, 20)
	art, err := compile.CompileSource(wl.Name, wl.Src, eblock.Config{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 3})
	if err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	g := parallel.Build(v.Log, len(art.Prog.Globals))
	sinkI, sinkP := obs.New(), obs.New()
	want := IndexedObs(g, sinkI)
	for _, workers := range []int{1, 2, 4} {
		got := ParallelObs(g, workers, sinkP)
		if Report(got, gidName) != Report(want, gidName) {
			t.Errorf("workers=%d: ParallelObs != IndexedObs", workers)
		}
	}
	// Both variants checked the same universe of conflicting pairs.
	pi := sinkI.Snapshot().Counter("race.pairs")
	pp := sinkP.Snapshot().Counter("race.pairs")
	if pp != 3*pi {
		t.Errorf("parallel pairs = %d over 3 runs, indexed = %d per run", pp, pi)
	}
}

func gidName(gid int) string { return fmt.Sprintf("g%d", gid) }
