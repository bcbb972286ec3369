package race

import (
	"fmt"
	"strings"
	"testing"

	"ppd/internal/analysis"
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
	return Detect(g, Opts{Workers: 1}), g, art
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

// Small hand-written programs shared by the equivalence tests: racyPair
// races on both variables, guarded serializes its one write behind a
// lock, disjoint touches no variable from two processes, and racyTwo
// races on two counters.
var (
	racyPair = &workloads.Workload{Name: "racy-pair", Src: `
shared a; shared b;
sem done = 0;
func w1() { a = 1; b = a + 1; V(done); }
func w2() { b = 2; a = b * 3; V(done); }
func main() { spawn w1(); spawn w2(); P(done); P(done); }`}
	guarded = &workloads.Workload{Name: "guarded", Src: `
shared a;
sem m = 1;
sem done = 0;
func w() { P(m); a = a + 1; V(m); V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); }`}
	disjoint = &workloads.Workload{Name: "disjoint", Src: `
shared a; shared b;
sem done = 0;
func w1() { a = 1; V(done); }
func w2() { b = 2; V(done); }
func main() { spawn w1(); spawn w2(); P(done); P(done); }`}
	racyTwo = &workloads.Workload{Name: "racy-two", Src: `
shared a;
shared b;
sem done = 0;
func w() { a = a + 1; b = b + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); }`}
)

// TestNaiveAndIndexedAgree checks the sequential Detect against the Naive
// oracle on the hand-written programs under two schedules.
func TestNaiveAndIndexedAgree(t *testing.T) {
	for _, wl := range []*workloads.Workload{racyPair, guarded, disjoint} {
		for _, seed := range []int64{0, 4} {
			art, err := compile.CompileSource(wl.Name, wl.Src, eblock.Config{})
			if err != nil {
				t.Fatal(err)
			}
			v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: seed, Quantum: 1})
			if err := v.Run(); err != nil {
				t.Fatal(err)
			}
			g := parallel.Build(v.Log, len(art.Prog.Globals))
			naive, indexed := Naive(g), Detect(g, Opts{Workers: 1})
			if !sameRaces(naive, indexed) {
				t.Errorf("%s seed %d: naive=%d indexed=%d races", wl.Name, seed, len(naive), len(indexed))
			}
		}
	}
}

// TestIndexedObsCountersAndEquivalence checks that observing the
// sequential Detect changes nothing it returns and that its counters
// reconcile with the races it found.
func TestIndexedObsCountersAndEquivalence(t *testing.T) {
	want, g, _ := detect(t, racyTwo.Src, vm.Options{Quantum: 1})
	if len(want) == 0 {
		t.Fatal("test program must race")
	}
	sink := obs.New()
	got := Detect(g, Opts{Workers: 1, Obs: sink})
	if Report(got, gidName) != Report(want, gidName) {
		t.Errorf("observed Detect != unobserved:\n%s\nvs\n%s",
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

// TestParallelObsMatchesIndexedObs checks that the sharded Detect returns
// the sequential one's races and tests the same candidate pairs.
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
	want := Detect(g, Opts{Workers: 1, Obs: sinkI})
	for _, workers := range []int{1, 2, 4} {
		got := Detect(g, Opts{Workers: workers, Obs: sinkP})
		if Report(got, gidName) != Report(want, gidName) {
			t.Errorf("workers=%d: sharded Detect != sequential", workers)
		}
	}
	// Every width checked the same universe of conflicting pairs.
	pi := sinkI.Snapshot().Counter("race.pairs")
	pp := sinkP.Snapshot().Counter("race.pairs")
	if pp != 3*pi {
		t.Errorf("sharded pairs = %d over 3 runs, sequential = %d per run", pp, pi)
	}
}

func gidName(gid int) string { return fmt.Sprintf("g%d", gid) }

// TestDetectorsEquivalence is the cross-detector golden contract: Detect,
// at several worker counts and with and without the static conflict mask,
// must return the race set of the Naive oracle — same order, same pairs,
// same kinds, same variables — on every standard workload, on seeded racy
// ones and on small hand-written programs (racy, lock-guarded, disjoint).
// Its counters must reconcile too: one run, the races it returned, and the
// same candidate pairs and pruned buckets at every worker count, because
// sharding splits the scan without changing it. Determinism is the
// product: the parallel scan is only admissible because of this test.
func TestDetectorsEquivalence(t *testing.T) {
	type caseDef struct {
		wl      *workloads.Workload
		quantum int
		seed    int64
		racy    bool // the run must report at least one race
	}
	var cases []caseDef
	for _, wl := range workloads.Standard() {
		cases = append(cases, caseDef{wl, 3, 0, false})
	}
	cases = append(cases,
		caseDef{workloads.RacyCounter(4, 6, false), 1, 0, false},
		caseDef{workloads.RacyCounter(4, 6, false), 1, 7, false},
		caseDef{workloads.RacyCounter(3, 5, true), 1, 3, false},
		caseDef{workloads.Sharded(4, 8), 3, 0, false},
		caseDef{workloads.Sharded(4, 20), 3, 0, false},
		caseDef{racyTwo, 1, 0, true},
	)
	for _, wl := range []*workloads.Workload{racyPair, guarded, disjoint} {
		for _, seed := range []int64{0, 4} {
			cases = append(cases, caseDef{wl, 1, seed, false})
		}
	}
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
		want := Naive(g)
		if tc.racy && len(want) == 0 {
			t.Fatalf("%s seed %d: program must race", tc.wl.Name, tc.seed)
		}
		mask := analysis.Analyze(art.PDG, art.Prog, nil).Conflicts.Mask()
		var fullPairs int64
		for _, m := range []*bitset.Set{nil, mask} {
			var pairs1, pruned1 int64
			for _, workers := range []int{1, 2, 4} {
				where := fmt.Sprintf("%s seed %d workers %d masked %t", tc.wl.Name, tc.seed, workers, m != nil)
				sink := obs.New()
				got := Detect(g, Opts{Mask: m, Workers: workers, Obs: sink})
				if !sameRaces(want, got) {
					t.Errorf("%s: Detect diverges from Naive (%d vs %d races)", where, len(got), len(want))
				}
				snap := sink.Snapshot()
				pairs, pruned := snap.Counter("race.pairs"), snap.Counter("race.buckets.pruned")
				if n := snap.Counter("race.runs"); n != 1 {
					t.Errorf("%s: race.runs = %d, want 1", where, n)
				}
				if n := snap.Counter("race.races"); n != int64(len(got)) {
					t.Errorf("%s: race.races = %d, want %d", where, n, len(got))
				}
				if pairs < int64(len(got)) {
					t.Errorf("%s: race.pairs = %d, want >= %d (every race was a checked pair)", where, pairs, len(got))
				}
				if snap.Timer("debug.race").Count != 1 {
					t.Errorf("%s: debug.race scope not observed once", where)
				}
				if workers == 1 {
					pairs1, pruned1 = pairs, pruned
				} else if pairs != pairs1 || pruned != pruned1 {
					t.Errorf("%s: pairs/pruned = %d/%d, want %d/%d as at one worker",
						where, pairs, pruned, pairs1, pruned1)
				}
			}
			switch {
			case m == nil && pruned1 != 0:
				t.Errorf("%s seed %d: unmasked scan pruned %d buckets", tc.wl.Name, tc.seed, pruned1)
			case m == nil:
				fullPairs = pairs1
			case pairs1 > fullPairs:
				t.Errorf("%s seed %d: masked scan tested %d pairs, unmasked %d", tc.wl.Name, tc.seed, pairs1, fullPairs)
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
// and checks Naive and Detect, sequential and sharded, agree it races.
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
	n, d1, d4 := Naive(g), Detect(g, Opts{Workers: 1}), Detect(g, Opts{Workers: 4})
	if len(d1) == 0 {
		t.Fatal("unprotected counter must race")
	}
	if !sameRaces(d1, n) || !sameRaces(d1, d4) {
		t.Errorf("detectors disagree: naive=%d workers1=%d workers4=%d", len(n), len(d1), len(d4))
	}
}
