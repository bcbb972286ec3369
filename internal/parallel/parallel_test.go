package parallel

import (
	"strings"
	"testing"

	"ppd/internal/ast"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/vm"
)

// execGraph compiles src, runs it logged with the given scheduling, and
// builds the parallel dynamic graph.
func execGraph(t *testing.T, src string, opts vm.Options) (*Graph, *compile.Artifacts, *vm.VM) {
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
	return Build(v.Log, len(art.Prog.Globals)), art, v
}

// TestFigure61ParallelGraph mirrors the paper's Fig 6.1: three processes
// with a blocking send (n3) received by another process (n4), unblocking
// the sender (n5) — the internal edge between send and unblock contains
// zero events (e4 in the figure).
func TestFigure61ParallelGraph(t *testing.T) {
	src := `
chan c;
sem done = 0;
func p2() {
	var v = recv(c);
	print(v);
	V(done);
}
func p3() {
	V(done);
}
func main() {
	spawn p2();
	spawn p3();
	send(c, 7);
	P(done);
	P(done);
}`
	g, _, _ := execGraph(t, src, vm.Options{Quantum: 1})
	if g.NumProcs() != 3 {
		t.Fatalf("procs = %d, want 3", g.NumProcs())
	}

	// Find the send (P1), recv (P2), unblock (P1) events.
	var send, recv, unblock *Event
	for i := range g.Events {
		ev := &g.Events[i]
		switch {
		case ev.Op == logging.OpSend:
			send = ev
		case ev.Op == logging.OpRecv:
			recv = ev
		case ev.Op == logging.OpUnblock:
			unblock = ev
		}
	}
	if send == nil || recv == nil || unblock == nil {
		t.Fatalf("missing events:\n%s", g)
	}
	// n3 -> n4: the recv's causal source is the send.
	if recv.From != send.ID {
		t.Errorf("recv.From = %d, want send %d", recv.From, send.ID)
	}
	// n4 -> n5: the sender's unblock comes from the recv.
	if unblock.From != recv.ID {
		t.Errorf("unblock.From = %d, want recv %d", unblock.From, recv.ID)
	}
	// The internal edge send→unblock on P1 contains zero events: its
	// read/write sets are empty (e4 in the figure).
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Start == send.ID && e.End == unblock.ID {
			if !e.Reads.IsEmpty() || !e.Writes.IsEmpty() {
				t.Errorf("edge e4 should be empty, got reads=%s writes=%s", &e.Reads, &e.Writes)
			}
		}
	}
	// Happened-before: send → recv's successor events, and transitively to
	// everything after the unblock.
	if !g.HappensBefore(send.ID, recv.ID) {
		t.Error("send must happen before recv")
	}
	if !g.HappensBefore(send.ID, unblock.ID) {
		t.Error("send must happen before unblock (transitively)")
	}
	if g.HappensBefore(recv.ID, send.ID) {
		t.Error("recv must not happen before send")
	}
}

func TestSpawnOrdersChildAfterParent(t *testing.T) {
	g, _, _ := execGraph(t, `
func child() { print(1); }
func main() { spawn child(); }`, vm.Options{})
	var spawn, start *Event
	for i := range g.Events {
		ev := &g.Events[i]
		if ev.Op == logging.OpSpawn {
			spawn = ev
		}
		if ev.Kind == logging.RecStart && ev.PID == 1 {
			start = ev
		}
	}
	if spawn == nil || start == nil {
		t.Fatalf("missing events:\n%s", g)
	}
	if start.From != spawn.ID {
		t.Errorf("child start.From = %d, want spawn %d", start.From, spawn.ID)
	}
	if !g.HappensBefore(spawn.ID, start.ID) {
		t.Error("spawn must happen before child start")
	}
}

func TestSemaphoreOrdering(t *testing.T) {
	// Worker V(done) must happen before main's post-P(done) events.
	g, _, _ := execGraph(t, `
shared sv;
sem done = 0;
func w() {
	sv = 1;
	V(done);
}
func main() {
	spawn w();
	P(done);
	sv = 2;
}`, vm.Options{Quantum: 1})
	var vEv, pEv *Event
	for i := range g.Events {
		ev := &g.Events[i]
		if ev.Op == logging.OpV {
			vEv = ev
		}
		if ev.Op == logging.OpP {
			pEv = ev
		}
	}
	if vEv == nil || pEv == nil {
		t.Fatal("missing sem events")
	}
	if !g.HappensBefore(vEv.ID, pEv.ID) {
		t.Errorf("V must happen before the P it enables:\n%s", g)
	}
	// The edges: worker's write edge (terminated by V) must be ordered
	// before main's post-P edge (terminated by exit).
	var writeEdge, postPEdge *InternalEdge
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.PID == 1 && e.Writes.Has(0) {
			writeEdge = e
		}
		if e.PID == 0 && e.Start == pEv.ID {
			postPEdge = e
		}
	}
	if writeEdge == nil || postPEdge == nil {
		t.Fatalf("missing edges:\n%s", g)
	}
	if !g.EdgeHB(writeEdge, postPEdge) {
		t.Error("worker's write edge must precede main's post-P edge")
	}
	if g.Simultaneous(writeEdge, postPEdge) {
		t.Error("ordered edges must not be simultaneous")
	}
}

func TestConcurrentEdgesAreSimultaneous(t *testing.T) {
	// Two workers with no synchronization between them.
	g, _, _ := execGraph(t, `
shared a;
shared b;
sem done = 0;
func w1() { a = 1; V(done); }
func w2() { b = 2; V(done); }
func main() {
	spawn w1();
	spawn w2();
	P(done);
	P(done);
}`, vm.Options{Quantum: 1})
	var e1, e2 *InternalEdge
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.PID == 1 && e.Writes.Has(0) {
			e1 = e
		}
		if e.PID == 2 && e.Writes.Has(1) {
			e2 = e
		}
	}
	if e1 == nil || e2 == nil {
		t.Fatalf("missing edges:\n%s", g)
	}
	if !g.Simultaneous(e1, e2) {
		t.Error("unsynchronized edges of different processes must be simultaneous")
	}
}

func TestVZeroToOnePairing(t *testing.T) {
	// §6.2.1 second rule: V takes sem 0→1, next op is another process's P.
	g, _, _ := execGraph(t, `
sem s = 0;
sem done = 0;
func w() {
	V(s);
	V(done);
}
func main() {
	spawn w();
	P(done);
	P(s);
}`, vm.Options{Quantum: 1})
	var vS, pS *Event
	for i := range g.Events {
		ev := &g.Events[i]
		if ev.Op == logging.OpV && ev.Obj == 0 {
			vS = ev
		}
		if ev.Op == logging.OpP && ev.Obj == 0 {
			pS = ev
		}
	}
	if vS == nil || pS == nil {
		t.Fatalf("missing events:\n%s", g)
	}
	if pS.From != vS.ID {
		t.Errorf("P(s).From = %d, want V(s) %d (0->1 pairing)", pS.From, vS.ID)
	}
}

func TestLastWriterBefore(t *testing.T) {
	g, art, _ := execGraph(t, `
shared sv;
sem done = 0;
func w() {
	sv = 42;
	V(done);
}
func main() {
	spawn w();
	P(done);
	print(sv);
}`, vm.Options{Quantum: 1})
	gid := art.Info.GlobalByName("sv").GlobalID
	// Main's post-P edge reads sv.
	var readEdge *InternalEdge
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.PID == 0 && e.Reads.Has(gid) {
			readEdge = e
		}
	}
	if readEdge == nil {
		t.Fatalf("no reading edge:\n%s", g)
	}
	w := g.LastWriterBefore(readEdge, gid)
	if w == nil || w.PID != 1 {
		t.Errorf("last writer = %+v, want worker's edge", w)
	}
}

func TestClocksAreMonotonicPerProcess(t *testing.T) {
	g, _, _ := execGraph(t, `
sem done = 0;
func w() { V(done); V(done); }
func main() {
	spawn w();
	P(done);
	P(done);
}`, vm.Options{Quantum: 1})
	for pid := 0; pid < g.NumProcs(); pid++ {
		edges := g.EdgesOf(pid)
		for i := 1; i < len(edges); i++ {
			if !g.EdgeHB(&edges[i-1], &edges[i]) {
				t.Errorf("P%d: edge %d must precede edge %d", pid, i-1, i)
			}
		}
	}
}

func TestGraphString(t *testing.T) {
	g, _, _ := execGraph(t, `
func w() { print(1); }
func main() { spawn w(); }`, vm.Options{})
	s := g.String()
	if !strings.Contains(s, "P1:") || !strings.Contains(s, "P2:") {
		t.Errorf("render missing processes:\n%s", s)
	}
	if !strings.Contains(s, "sync: P1.spawn -> P2.start") {
		t.Errorf("render missing spawn edge:\n%s", s)
	}
}

func TestDeadlockAnalysis(t *testing.T) {
	// Classic lock-order inversion: main holds a and wants b; worker holds
	// b and wants a.
	src := `
sem a = 1;
sem b = 1;
sem started = 0;
func w() {
	P(b);
	V(started);
	P(a);
	V(a);
	V(b);
}
func main() {
	P(a);
	spawn w();
	P(started);
	P(b);
	V(b);
	V(a);
}`
	art, err := compile.CompileSource("dl.mpl", src, eblock.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 1})
	rerr := v.Run()
	if rerr == nil || !v.Deadlock {
		t.Fatalf("expected deadlock, got %v", rerr)
	}
	g := Build(v.Log, len(art.Prog.Globals))
	info := g.AnalyzeDeadlock()
	if len(info.Blocked) != 2 {
		t.Fatalf("blocked = %d, want 2: %+v", len(info.Blocked), info.Blocked)
	}
	// Main (P0) waits on b; worker (P1) waits on a.
	waits := map[int]string{}
	for _, bp := range info.Blocked {
		waits[bp.PID] = art.Prog.Globals[bp.Obj].Name
	}
	if waits[0] != "b" || waits[1] != "a" {
		t.Errorf("waits = %v, want P0->b P1->a", waits)
	}
	// Holders: a held by P0, b held by P1.
	if info.Holders[0] != 0 || info.Holders[1] != 1 {
		t.Errorf("holders = %v", info.Holders)
	}
	rep := info.Report(
		func(gid int) string { return art.Prog.Globals[gid].Name },
		func(id ast.StmtID) string { return "stmt" })
	for _, want := range []string{"P0 blocked in P(b)", "P1 blocked in P(a)",
		"a last acquired by P0", "b last acquired by P1"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestNoDeadlockInCleanRun(t *testing.T) {
	g, _, _ := execGraph(t, `
sem done = 0;
func w() { V(done); }
func main() { spawn w(); P(done); }`, vm.Options{Quantum: 1})
	info := g.AnalyzeDeadlock()
	if len(info.Blocked) != 0 {
		t.Errorf("clean run reported blocked procs: %+v", info.Blocked)
	}
}

// TestRPCPattern verifies §6.2.3's treatment of RPC/rendezvous: "we can
// treat the remote procedure call in a similar way as we do the rendezvous
// using two synchronization edges, one for calling to, and another for
// returning from the RPC". In MPL the pattern is a request channel and a
// reply channel; the graph must contain both edges and order the client's
// post-call code after the server's handler.
func TestRPCPattern(t *testing.T) {
	src := `
shared handled;
chan req;
chan rep;
func server() {
	var arg = recv(req);
	handled = arg * 2;
	send(rep, handled);
}
func main() {
	spawn server();
	send(req, 21);
	var result = recv(rep);
	print(result);
}`
	g, art, _ := execGraph(t, src, vm.Options{Quantum: 1})

	var callSend, callRecv, retSend, retRecv *Event
	reqID := art.Info.GlobalByName("req").GlobalID
	repID := art.Info.GlobalByName("rep").GlobalID
	for i := range g.Events {
		ev := &g.Events[i]
		switch {
		case ev.Op == logging.OpSend && ev.Obj == reqID:
			callSend = ev
		case ev.Op == logging.OpRecv && ev.Obj == reqID:
			callRecv = ev
		case ev.Op == logging.OpSend && ev.Obj == repID:
			retSend = ev
		case ev.Op == logging.OpRecv && ev.Obj == repID:
			retRecv = ev
		}
	}
	if callSend == nil || callRecv == nil || retSend == nil || retRecv == nil {
		t.Fatalf("missing RPC events:\n%s", g)
	}
	// Edge 1: calling to the RPC.
	if callRecv.From != callSend.ID {
		t.Errorf("call edge: recv.From = %d, want %d", callRecv.From, callSend.ID)
	}
	// Edge 2: returning from the RPC.
	if retRecv.From != retSend.ID {
		t.Errorf("return edge: recv.From = %d, want %d", retRecv.From, retSend.ID)
	}
	// The client's resume point is ordered after the server's handler.
	if !g.HappensBefore(callSend.ID, retRecv.ID) {
		t.Error("client call must happen before client resume")
	}
	if !g.HappensBefore(callRecv.ID, retRecv.ID) {
		t.Error("server handling must happen before client resume")
	}
	// The server's write to `handled` is ordered before the client's
	// post-RPC edge: no race despite no explicit mutex.
	hID := art.Info.GlobalByName("handled").GlobalID
	var writeEdge, clientTail *InternalEdge
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.PID == 1 && e.Writes.Has(hID) {
			writeEdge = e
		}
		if e.PID == 0 && e.Start == retRecv.ID {
			clientTail = e
		}
	}
	if writeEdge == nil || clientTail == nil {
		t.Fatalf("missing edges:\n%s", g)
	}
	if !g.EdgeHB(writeEdge, clientTail) {
		t.Error("server's write edge must precede client's post-RPC edge")
	}
}

// TestHappensBeforeIsStrictPartialOrder checks the algebraic laws of the
// "+"-operator (§6.1) over real executions: irreflexivity, asymmetry, and
// transitivity of the event ordering, and asymmetry of the edge ordering.
func TestHappensBeforeIsStrictPartialOrder(t *testing.T) {
	srcs := []string{
		`
sem done = 0;
chan c;
func a() { send(c, 1); V(done); }
func b() { var x = recv(c); print(x); V(done); }
func main() { spawn a(); spawn b(); P(done); P(done); }`,
		`
sem m = 1;
sem done = 0;
shared g;
func w(k int) {
	var i = 0;
	while (i < 3) { P(m); g = g + k; V(m); i = i + 1; }
	V(done);
}
func main() { spawn w(1); spawn w(2); spawn w(3); P(done); P(done); P(done); }`,
	}
	for si, src := range srcs {
		for _, seed := range []int64{0, 5, 11} {
			g, _, _ := execGraph(t, src, vm.Options{Quantum: 1, Seed: seed})
			n := len(g.Events)
			for i := 0; i < n; i++ {
				if g.HappensBefore(EventID(i), EventID(i)) {
					t.Fatalf("src %d seed %d: event %d before itself", si, seed, i)
				}
				for j := 0; j < n; j++ {
					if i != j && g.HappensBefore(EventID(i), EventID(j)) &&
						g.HappensBefore(EventID(j), EventID(i)) {
						t.Fatalf("src %d seed %d: %d and %d mutually ordered", si, seed, i, j)
					}
					for k := 0; k < n; k++ {
						if g.HappensBefore(EventID(i), EventID(j)) &&
							g.HappensBefore(EventID(j), EventID(k)) &&
							!g.HappensBefore(EventID(i), EventID(k)) {
							t.Fatalf("src %d seed %d: transitivity violated %d->%d->%d", si, seed, i, j, k)
						}
					}
				}
			}
			// Edge ordering is asymmetric and consistent with Simultaneous.
			for i := range g.Edges {
				for j := range g.Edges {
					e1, e2 := &g.Edges[i], &g.Edges[j]
					hb12, hb21 := g.EdgeHB(e1, e2), g.EdgeHB(e2, e1)
					if i != j && hb12 && hb21 {
						t.Fatalf("src %d seed %d: edges %d,%d mutually ordered", si, seed, e1.ID, e2.ID)
					}
					if g.Simultaneous(e1, e2) != (!hb12 && !hb21) {
						t.Fatalf("src %d seed %d: Simultaneous inconsistent", si, seed)
					}
				}
			}
		}
	}
}

// TestSyncEdgesRespectGsnOrder: a causal source always has a smaller global
// sequence number than its target.
func TestSyncEdgesRespectGsnOrder(t *testing.T) {
	g, _, _ := execGraph(t, `
sem done = 0;
chan c;
func w() { send(c, 1); V(done); }
func main() { spawn w(); var x = recv(c); P(done); print(x); }`,
		vm.Options{Quantum: 1})
	for _, pair := range g.SyncEdges {
		from, to := g.Events[pair[0]], g.Events[pair[1]]
		if from.Gsn != 0 && to.Gsn != 0 && from.Gsn >= to.Gsn {
			t.Errorf("edge %d->%d violates gsn order (%d >= %d)",
				pair[0], pair[1], from.Gsn, to.Gsn)
		}
	}
}

func TestEdgesOfIndexed(t *testing.T) {
	g, _, _ := execGraph(t, `
sem done = 0;
func w() { V(done); }
func main() { spawn w(); P(done); }`, vm.Options{Quantum: 1})
	for pid := 0; pid < g.NumProcs(); pid++ {
		edges := g.EdgesOf(pid)
		prev := -1
		for _, e := range edges {
			if e.PID != pid {
				t.Fatalf("EdgesOf(%d) returned edge of P%d", pid, e.PID)
			}
			if e.ID <= prev {
				t.Fatalf("EdgesOf(%d) out of order: %d after %d", pid, e.ID, prev)
			}
			prev = e.ID
		}
	}
	if g.EdgesOf(-1) != nil || g.EdgesOf(99) != nil {
		t.Error("out-of-range pid must return nil")
	}
}
