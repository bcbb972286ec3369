package parallel

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ppd/internal/ast"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/mplgen"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// corpusProgram is one program of the flat-graph equivalence corpus.
type corpusProgram struct{ name, src string }

// graphCorpus is the standard workloads, the triage families at small
// sizes, every testdata program, the deadlock and determinism programs of
// this package's tests, and generated parallel and racy programs.
func graphCorpus(t *testing.T) []corpusProgram {
	t.Helper()
	var out []corpusProgram
	add := func(w *workloads.Workload) { out = append(out, corpusProgram{w.Name, w.Src}) }
	for _, w := range workloads.Standard() {
		add(w)
	}
	add(workloads.Relay(3, 15))
	add(workloads.Relay(5, 30))
	add(workloads.TokenRing(4, 10))
	add(workloads.ProdCons(20))
	add(workloads.RacyTicker(2, 5))
	add(workloads.GuardedCounter(3, 10))
	add(workloads.Sharded(3, 20))
	paths, err := filepath.Glob("../../testdata/*.mpl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("testdata programs: %v (%d found)", err, len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpusProgram{filepath.Base(p), string(src)})
	}
	out = append(out, corpusProgram{"deadlock", deadlockProgram}, corpusProgram{"determinism", determinismProgram})
	for seed := int64(1); seed <= 20; seed++ {
		out = append(out,
			corpusProgram{fmt.Sprintf("mplgen-parallel-%d", seed), mplgen.Generate(seed, mplgen.ParallelConfig())},
			corpusProgram{fmt.Sprintf("mplgen-racy-%d", seed), mplgen.Generate(seed, mplgen.RacyConfig())})
	}
	return out
}

// determinismProgram has three workers contending on a mutex and a
// counter: a small graph whose clocks depend on every sync edge.
const determinismProgram = `
shared a; shared b;
sem m = 1;
sem done = 0;
func w1() { P(m); a = a + 1; V(m); b = 9; V(done); }
func w2() { P(m); a = a * 2; V(m); V(done); }
func w3() { b = b + a; V(done); }
func main() {
	spawn w1();
	spawn w2();
	spawn w3();
	P(done); P(done); P(done);
	print(a + b);
}`

// loggedRun compiles src and runs it logged; a runtime failure or deadlock
// still leaves a complete log.
func loggedRun(tb testing.TB, name, src string, seed int64, quantum int) (*logging.ProgramLog, int) {
	tb.Helper()
	art, err := compile.CompileSource(name, src, eblock.DefaultConfig())
	if err != nil {
		tb.Fatalf("compile %s: %v", name, err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: seed, Quantum: quantum, Output: io.Discard, MaxSteps: 2_000_000})
	_ = v.Run()
	return v.Log, len(art.Prog.Globals)
}

// compareWithReference checks g field by field against the pointer
// builder's graph of the same log.
func compareWithReference(t *testing.T, name string, g *Graph, ref *refGraph) {
	t.Helper()
	if len(g.Events) != len(ref.Events) || len(g.Edges) != len(ref.Edges) {
		t.Fatalf("%s: %d events / %d edges, want %d / %d", name, len(g.Events), len(g.Edges), len(ref.Events), len(ref.Edges))
	}
	for i := range g.Events {
		ev, re := &g.Events[i], ref.Events[i]
		if ev.ID != re.ID || ev.PID != re.PID || ev.Idx != re.Idx || ev.Op != re.Op ||
			ev.Kind != re.Kind || ev.Obj != re.Obj || ev.Stmt != re.Stmt || ev.Gsn != re.Gsn || ev.From != re.From {
			t.Fatalf("%s: event %d = %+v, want %+v", name, i, *ev, *re)
		}
		row := g.Clock(ev.ID)
		if len(row) != len(re.Clock) {
			t.Fatalf("%s: event %d clock %v, want %v", name, i, row, re.Clock)
		}
		for k, c := range re.Clock {
			if row[k] != uint32(c) {
				t.Fatalf("%s: event %d clock %v, want %v", name, i, row, re.Clock)
			}
		}
	}
	for i := range g.Edges {
		e, re := &g.Edges[i], ref.Edges[i]
		if e.ID != re.ID || e.PID != re.PID || e.Start != re.Start || e.End != re.End ||
			e.StartRec != re.StartRec || e.EndRec != re.EndRec ||
			!e.Reads.Equal(re.Reads) || !e.Writes.Equal(re.Writes) {
			t.Fatalf("%s: edge %d = {%d P%d %d..%d rec %d..%d r%s w%s}, want {%d P%d %d..%d rec %d..%d r%s w%s}",
				name, i, e.ID, e.PID, e.Start, e.End, e.StartRec, e.EndRec, &e.Reads, &e.Writes,
				re.ID, re.PID, re.Start, re.End, re.StartRec, re.EndRec, re.Reads, re.Writes)
		}
	}
	for pid := 0; pid < g.NumProcs(); pid++ {
		edges := g.EdgesOf(pid)
		if len(edges) != len(ref.byProc[pid]) {
			t.Fatalf("%s: EdgesOf(%d) has %d edges, want %d", name, pid, len(edges), len(ref.byProc[pid]))
		}
		for k := range edges {
			if edges[k].ID != int(ref.byProc[pid][k]) {
				t.Fatalf("%s: EdgesOf(%d)[%d] = edge %d, want %d", name, pid, k, edges[k].ID, ref.byProc[pid][k])
			}
		}
	}
	if !slices.Equal(g.SyncEdges, ref.SyncEdges) {
		t.Fatalf("%s: sync edges %v, want %v", name, g.SyncEdges, ref.SyncEdges)
	}
	if got, want := g.String(), ref.String(); got != want {
		t.Fatalf("%s: rendering differs\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestFlatGraphMatchesReference pins the flat graph to the pointer
// builder it replaced: every event (pid, idx, op, kind, obj, stmt, gsn,
// From, clock row), every edge (endpoints, record span, read and write
// sets), the per-process edge index, the sync edges and the rendering are
// identical over the corpus at several schedules, and over a log
// round-tripped through the codec.
func TestFlatGraphMatchesReference(t *testing.T) {
	schedules := []struct {
		seed    int64
		quantum int
	}{{1, 40}, {0, 1}, {3, 5}}
	for _, cp := range graphCorpus(t) {
		for _, s := range schedules {
			name := fmt.Sprintf("%s/s%d_q%d", cp.name, s.seed, s.quantum)
			pl, nShared := loggedRun(t, cp.name+".mpl", cp.src, s.seed, s.quantum)
			compareWithReference(t, name, Build(pl, nShared), refBuild(pl, nShared))
		}
	}

	// A log read back from its encoding builds the same graph.
	wl := workloads.ProdCons(20)
	pl, nShared := loggedRun(t, wl.Name, wl.Src, 1, 40)
	var buf bytes.Buffer
	if err := pl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := logging.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(read, nShared)
	compareWithReference(t, "round-trip", g, refBuild(read, nShared))
	if got, want := g.String(), Build(pl, nShared).String(); got != want {
		t.Fatalf("round-tripped log renders differently\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestForgedLogBounds feeds Build logs a corrupt or hostile file could
// carry: a FromGsn of 2^63, a FromGsn naming the record itself, a forward
// cycle between two processes, and an out-of-range object. Each still
// yields the reference's graph — unmatched sources dropped, cycles
// zero-clocked — without panicking, and no array is sized by a gsn: the
// build allocates the same as for the honest log.
func TestForgedLogBounds(t *testing.T) {
	wl := workloads.Relay(3, 15)
	honest, nShared := loggedRun(t, wl.Name, wl.Src, 1, 40)
	var enc bytes.Buffer
	if err := honest.Write(&enc); err != nil {
		t.Fatal(err)
	}
	// syncRecs lists process pid's sync records.
	syncRecs := func(pl *logging.ProgramLog, pid int) []*logging.Record {
		var out []*logging.Record
		for _, r := range pl.Books[pid].Records {
			if r.Kind == logging.RecSync {
				out = append(out, r)
			}
		}
		return out
	}
	forgeries := []struct {
		name  string
		forge func(pl *logging.ProgramLog)
	}{
		{"from-2^63", func(pl *logging.ProgramLog) { syncRecs(pl, 0)[1].FromGsn = 1 << 63 }},
		{"from-self", func(pl *logging.ProgramLog) {
			r := syncRecs(pl, 1)[2]
			r.FromGsn = r.Gsn
		}},
		{"forward-cycle", func(pl *logging.ProgramLog) {
			a, b := syncRecs(pl, 0)[2], syncRecs(pl, 1)[3]
			a.FromGsn, b.FromGsn = b.Gsn, a.Gsn
		}},
		{"obj-out-of-range", func(pl *logging.ProgramLog) {
			syncRecs(pl, 0)[0].Obj = 1 << 40
			syncRecs(pl, 1)[0].Obj = -7
		}},
	}
	honestAllocs := testing.AllocsPerRun(5, func() { Build(honest, nShared) })
	for _, f := range forgeries {
		t.Run(f.name, func(t *testing.T) {
			pl, err := logging.Read(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			f.forge(pl)
			g := Build(pl, nShared)
			compareWithReference(t, f.name, g, refBuild(pl, nShared))
			for i := range g.Edges {
				g.LastWriterBefore(&g.Edges[i], 0)
			}
			g.AnalyzeDeadlock().Report(func(int) string { return "x" }, func(ast.StmtID) string { return "s" })
			if raceEnabled {
				return
			}
			if got := testing.AllocsPerRun(5, func() { Build(pl, nShared) }); got > honestAllocs+2 {
				t.Errorf("forged build allocates %.0f objects, honest %.0f", got, honestAllocs)
			}
		})
	}
}

// TestBuildAllocsFlat pins the flat build's allocation count: tripling
// relay's rounds triples its events but adds at most a few doublings of
// the gsn map, never an allocation per event.
func TestBuildAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	allocs := func(wl *workloads.Workload) (float64, int) {
		pl, nShared := loggedRun(t, wl.Name, wl.Src, 1, 40)
		g := Build(pl, nShared)
		return testing.AllocsPerRun(10, func() { Build(pl, nShared) }), len(g.Events)
	}
	small, nSmall := allocs(workloads.Relay(3, 15))
	large, nLarge := allocs(workloads.Relay(3, 45))
	if nLarge < 2*nSmall {
		t.Fatalf("relay-3x45 has %d events vs %d: not enough growth to tell", nLarge, nSmall)
	}
	if large > small+4 {
		t.Errorf("Build allocates %.0f objects on %d events but %.0f on %d: allocation grows with the event count",
			small, nSmall, large, nLarge)
	}
	t.Logf("Build allocations: %.0f (%d events), %.0f (%d events)", small, nSmall, large, nLarge)
}

// deadlockProgram is examples/deadlock's lock-order inversion.
const deadlockProgram = `
sem disk = 1;
sem net = 1;
sem started = 0;

func transfer() {
	P(net);
	V(started);
	P(disk);
	V(disk);
	V(net);
}

func main() {
	P(disk);
	spawn transfer();
	P(started);
	P(net);
	V(net);
	V(disk);
}
`

// TestDeadlockReportDeterministic renders the deadlock example's report
// 50 times from fresh runs: every render is byte-identical and lists the
// likely held semaphores in ascending object order.
func TestDeadlockReportDeterministic(t *testing.T) {
	art, err := compile.CompileSource("deadlock.mpl", deadlockProgram, eblock.Config{})
	if err != nil {
		t.Fatal(err)
	}
	name := func(gid int) string { return art.Prog.Globals[gid].Name }
	var first string
	for i := 0; i < 50; i++ {
		v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 1})
		if err := v.Run(); err == nil || !v.Deadlock {
			t.Fatalf("expected a deadlock, got %v", err)
		}
		rep := Build(v.Log, len(art.Prog.Globals)).AnalyzeDeadlock().Report(name, func(ast.StmtID) string { return "stmt" })
		if i == 0 {
			first = rep
			continue
		}
		if rep != first {
			t.Fatalf("render %d differs:\n%s\nfirst:\n%s", i, rep, first)
		}
	}
	disk := strings.Index(first, "disk last acquired by P0")
	net := strings.Index(first, "net last acquired by P1")
	if disk < 0 || net < 0 || disk > net {
		t.Fatalf("holders missing or not in object order:\n%s", first)
	}
	if !strings.Contains(first, "P0 blocked in P(net)") {
		t.Fatalf("report lost the 0-based process numbering:\n%s", first)
	}
}
