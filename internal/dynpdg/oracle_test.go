package dynpdg

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"ppd/internal/ast"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/emulation"
	"ppd/internal/logging"
	"ppd/internal/mplgen"
	"ppd/internal/obs"
	"ppd/internal/source"
	"ppd/internal/trace"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// This file keeps the original dynamic-graph builder as the reference the
// production Builder is pinned against: it materializes the whole trace,
// finds a controlling predicate's latest instance by scanning every node
// built so far, keeps pending reads and adjacency in maps, and renders
// every statement instance's label afresh. Its data edges arrive in map
// order, so comparisons against it use per-node edge multisets.

// refGraph is the reference builder's output.
type refGraph struct {
	Nodes    []*Node
	Edges    []*Edge
	incoming map[NodeID][]*Edge
}

func (g *refGraph) newRefNode(n *Node) *Node {
	n.ID = NodeID(len(g.Nodes))
	n.Seq = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n
}

func (g *refGraph) addRefEdge(kind EdgeKind, from, to NodeID, v int) {
	e := &Edge{Kind: kind, From: from, To: to, Var: v}
	g.Edges = append(g.Edges, e)
	g.incoming[to] = append(g.incoming[to], e)
}

// refBuild is the original dynpdg.Build.
func refBuild(art *compile.Artifacts, buf *trace.Buffer, rootFn string) *refGraph {
	g := &refGraph{incoming: make(map[NodeID][]*Edge)}
	b := &refBuilder{g: g, art: art}
	b.run(buf, rootFn)
	return g
}

// builder state for one refActivation (function instance) being walked.
type refActivation struct {
	fnIdx    int
	fnName   string
	numSlots int
	// lastWrite maps function-space var index -> defining node.
	lastWrite map[int]NodeID
	// ctrlStack holds the predicate nodes currently governing execution
	// (approximation: the static control dependences resolve which apply;
	// we use the static PDG to attach control edges precisely).
	callNode NodeID // the sub-graph node in the caller, or -1 for the root
}

type refBuilder struct {
	g   *refGraph
	art *compile.Artifacts

	acts []*refActivation

	// lastWriteGlobal maps GlobalID -> defining node (globals are shared
	// across refActivations).
	lastWriteGlobal map[int]NodeID

	// current statement instance node per refActivation depth
	curStmtNode NodeID
	prevNode    NodeID // for flow edges

	// pending reads of the current statement instance: nodes feeding it.
	pendingDeps map[NodeID]int // node -> var

	// refCallSaves holds, per in-flight call, the caller's open statement node
	// and its unconsumed pending reads, so the statement instance resumes
	// when the call returns.
	refCallSaves []refCallSave

	// resume, when set, continues the saved statement instance at the next
	// EvStmt instead of opening a duplicate node.
	resume *refCallSave

	argVarsCache map[refArgVarsKey][][]int
}

type refCallSave struct {
	stmtNode NodeID
	pending  map[NodeID]int
}

type refArgVarsKey struct {
	fn     string
	stmt   ast.StmtID
	callee int
}

func (b *refBuilder) top() *refActivation { return b.acts[len(b.acts)-1] }

func (b *refBuilder) run(buf *trace.Buffer, rootFn string) {
	fn := b.art.Prog.FuncByName(rootFn)
	b.lastWriteGlobal = make(map[int]NodeID)
	entry := b.g.newRefNode(&Node{Kind: NodeEntry, Label: "ENTRY:" + rootFn, Var: -1})
	b.prevNode = entry.ID
	b.acts = []*refActivation{{
		fnIdx:     fn.Idx,
		fnName:    rootFn,
		numSlots:  fn.NumSlots,
		lastWrite: make(map[int]NodeID),
		callNode:  -1,
	}}
	b.pendingDeps = make(map[NodeID]int)
	b.curStmtNode = -1

	for i := range buf.Events {
		b.event(&buf.Events[i])
	}
	if b.curStmtNode >= 0 && len(b.pendingDeps) > 0 {
		b.flushDeps(b.curStmtNode)
	}
	exit := b.g.newRefNode(&Node{Kind: NodeExit, Label: "EXIT:" + rootFn, Var: -1})
	b.g.addRefEdge(EdgeFlow, b.prevNode, exit.ID, -1)
}

// defNodeFor returns (creating on demand) the node that defined var v as
// seen by the current refActivation. Unknown definitions become NodeInitial
// nodes: values that flowed in from the prelog (pre-interval state or
// another process — the controller resolves those across the parallel
// graph).
func (b *refBuilder) defNodeFor(v int) NodeID {
	act := b.top()
	if v >= act.numSlots { // global
		gid := v - act.numSlots
		if n, ok := b.lastWriteGlobal[gid]; ok {
			return n
		}
		name := b.art.Prog.Globals[gid].Name
		n := b.g.newRefNode(&Node{
			Kind: NodeInitial, Label: name + "@pre", Var: v,
		})
		b.lastWriteGlobal[gid] = n.ID
		return n.ID
	}
	if n, ok := act.lastWrite[v]; ok {
		return n
	}
	// A local read before any traced write: a parameter (bound at entry)
	// or prelog-restored loop local.
	label := fmt.Sprintf("%s@pre", b.localName(act, v))
	n := b.g.newRefNode(&Node{Kind: NodeInitial, Label: label, Var: v})
	act.lastWrite[v] = n.ID
	return n.ID
}

func (b *refBuilder) localName(act *refActivation, slot int) string {
	fi := b.art.Info.Funcs[act.fnName]
	if fi != nil && slot < len(fi.Locals) {
		return fi.Locals[slot].Name
	}
	return fmt.Sprintf("slot%d", slot)
}

func (b *refBuilder) varName(act *refActivation, v int) string {
	if v < 0 {
		return "?"
	}
	if v >= act.numSlots {
		return b.art.Prog.Globals[v-act.numSlots].Name
	}
	return b.localName(act, v)
}

// openStmt starts a node for a new statement instance, first flushing any
// reads still pending on the previous one (statements without writes or
// predicate outcomes — returns, prints, sends — keep their reads this way).
func (b *refBuilder) openStmt(kind NodeKind, stmt ast.StmtID, label string) *Node {
	if b.curStmtNode >= 0 && len(b.pendingDeps) > 0 {
		b.flushDeps(b.curStmtNode)
	}
	n := b.g.newRefNode(&Node{Kind: kind, Stmt: stmt, Label: label, Var: -1})
	b.g.addRefEdge(EdgeFlow, b.prevNode, n.ID, -1)
	b.prevNode = n.ID
	b.curStmtNode = n.ID
	b.attachControl(n)
	return n
}

// attachControl adds the control-dependence edge from the most recent
// instance of the statement's static controlling predicate.
func (b *refBuilder) attachControl(n *Node) {
	if n.Stmt == ast.NoStmt {
		return
	}
	act := b.top()
	fpdg := b.art.PDG.Funcs[act.fnName]
	if fpdg == nil {
		return
	}
	cfgNode := fpdg.CFG.NodeFor(n.Stmt)
	if cfgNode < 0 {
		return
	}
	for _, dep := range fpdg.CtrlDepsOf(cfgNode) {
		depStmt := fpdg.CFG.Nodes[dep].Stmt
		if depStmt == nil {
			continue
		}
		// Find the most recent instance of that predicate in this graph.
		for i := len(b.g.Nodes) - 1; i >= 0; i-- {
			cand := b.g.Nodes[i]
			if cand.Stmt == depStmt.ID() && cand.ID != n.ID {
				b.g.addRefEdge(EdgeControl, cand.ID, n.ID, -1)
				break
			}
		}
	}
}

func (b *refBuilder) event(e *trace.Event) {
	act := b.top()
	switch e.Kind {
	case trace.EvStmt:
		if r := b.resume; r != nil {
			b.resume = nil
			if r.stmtNode >= 0 && b.g.Nodes[r.stmtNode].Stmt == e.Stmt {
				// Continuation of the statement instance that contained the
				// just-returned call: keep its node and restored reads.
				b.curStmtNode = r.stmtNode
				b.pendingDeps = r.pending
				return
			}
		}
		label := "s?"
		if st := b.art.Info.Prog.StmtByID(e.Stmt); st != nil {
			label = ast.StmtString(st)
		}
		b.openStmt(NodeSingular, e.Stmt, label)
		b.pendingDeps = make(map[NodeID]int)

	case trace.EvRead:
		def := b.defNodeFor(e.Var)
		if b.curStmtNode >= 0 {
			b.pendingDeps[def] = e.Var
		}

	case trace.EvWrite:
		if b.curStmtNode < 0 {
			return
		}
		n := b.g.Nodes[b.curStmtNode]
		if n.Kind == NodeSubGraph {
			// A substituted interval's postlog values: the sub-graph node
			// becomes the definition site of everything it wrote.
			if e.Var >= act.numSlots {
				b.lastWriteGlobal[e.Var-act.numSlots] = n.ID
			} else {
				act.lastWrite[e.Var] = n.ID
			}
			return
		}
		n.Label = b.varName(act, e.Var)
		n.Value = e.Value
		n.HasValue = true
		n.Var = e.Var
		b.flushDeps(n.ID)
		if e.Var >= act.numSlots {
			b.lastWriteGlobal[e.Var-act.numSlots] = n.ID
		} else {
			act.lastWrite[e.Var] = n.ID
		}

	case trace.EvPred:
		if b.curStmtNode < 0 {
			return
		}
		n := b.g.Nodes[b.curStmtNode]
		n.Value = e.Value
		n.HasValue = true
		b.flushDeps(n.ID)

	case trace.EvCallBegin:
		callee := b.art.Prog.Funcs[e.FuncIdx]
		sub := b.g.newRefNode(&Node{
			Kind: NodeSubGraph, Stmt: e.Stmt, Label: callee.Name, Var: -1,
		})
		b.g.addRefEdge(EdgeFlow, b.prevNode, sub.ID, -1)
		b.prevNode = sub.ID
		b.attachControl(b.g.Nodes[sub.ID])
		newAct := &refActivation{
			fnIdx:     e.FuncIdx,
			fnName:    callee.Name,
			numSlots:  callee.NumSlots,
			lastWrite: make(map[int]NodeID),
			callNode:  sub.ID,
		}
		remaining := b.bindParams(e, sub, func(i int, pn NodeID) {
			if i < len(callee.ParamSlots) {
				newAct.lastWrite[callee.ParamSlots[i]] = pn
			}
		})
		b.refCallSaves = append(b.refCallSaves, refCallSave{stmtNode: b.curStmtNode, pending: remaining})
		b.pendingDeps = make(map[NodeID]int)
		b.acts = append(b.acts, newAct)
		b.curStmtNode = -1

	case trace.EvCallEnd:
		finished := b.acts[len(b.acts)-1]
		b.acts = b.acts[:len(b.acts)-1]
		if finished.callNode >= 0 {
			sub := b.g.Nodes[finished.callNode]
			if e.HasValue {
				sub.Value = e.Value
				sub.HasValue = true
			}
			// Resume the caller's statement instance: the call's result
			// (%0) feeds whatever consumes it, alongside the reads that
			// preceded the call.
			save := refCallSave{stmtNode: -1, pending: map[NodeID]int{}}
			if n := len(b.refCallSaves); n > 0 {
				save = b.refCallSaves[n-1]
				b.refCallSaves = b.refCallSaves[:n-1]
			}
			save.pending[sub.ID] = -1
			b.resume = &save
			b.curStmtNode = -1
			b.pendingDeps = map[NodeID]int{sub.ID: -1}
			b.prevNode = sub.ID
		}

	case trace.EvCallSkipped:
		label := "loop"
		if e.FuncIdx >= 0 {
			label = b.art.Prog.Funcs[e.FuncIdx].Name
		}
		sub := b.g.newRefNode(&Node{
			Kind: NodeSubGraph, Stmt: e.Stmt, Label: label,
			Value: e.Value, HasValue: e.HasValue, Var: -1,
		})
		b.g.addRefEdge(EdgeFlow, b.prevNode, sub.ID, -1)
		b.prevNode = sub.ID
		b.attachControl(b.g.Nodes[sub.ID])
		remaining := b.bindParams(e, sub, nil)
		remaining[sub.ID] = -1
		b.resume = &refCallSave{stmtNode: b.curStmtNode, pending: remaining}
		b.pendingDeps = map[NodeID]int{sub.ID: -1}
		// The substituted postlog's EvWrite events follow; route them
		// through the sub-graph node by making it current.
		b.curStmtNode = sub.ID

	case trace.EvSync:
		st := b.art.Info.Prog.StmtByID(e.Stmt)
		stLabel := e.Op.String()
		if st != nil {
			stLabel = ast.StmtString(st)
		}
		// Pure synchronization statements (P, V, send, spawn) become a
		// single sync node: convert the statement's open singular node
		// rather than adding a second one.
		pureSync := false
		switch st.(type) {
		case *ast.SemStmt, *ast.SendStmt, *ast.SpawnStmt:
			pureSync = true
		}
		if pureSync && b.curStmtNode >= 0 && b.g.Nodes[b.curStmtNode].Stmt == e.Stmt {
			n := b.g.Nodes[b.curStmtNode]
			n.Kind = NodeSync
			b.flushDeps(n.ID) // send values / spawn arguments feed the event
			b.curStmtNode = -1
			return
		}
		n := b.g.newRefNode(&Node{Kind: NodeSync, Stmt: e.Stmt, Label: stLabel, Var: -1})
		b.g.addRefEdge(EdgeFlow, b.prevNode, n.ID, -1)
		b.prevNode = n.ID
		b.attachControl(b.g.Nodes[n.ID])
		if e.Op == logging.OpRecv {
			// The received value flows into whatever consumes it; the
			// enclosing statement (var v = recv(c)) stays current so its
			// store lands on its own node.
			b.pendingDeps[n.ID] = -1
		}

	case trace.EvEnd:
		// handled by run's EXIT node
	}
}

func (b *refBuilder) flushDeps(to NodeID) {
	for dep, v := range b.pendingDeps {
		if dep == to {
			continue
		}
		b.g.addRefEdge(EdgeData, dep, to, v)
	}
	b.pendingDeps = make(map[NodeID]int)
}

// bindParams creates the %1..%n parameter nodes of a call, attaching to
// each the pending reads that statically belong to that argument's
// expression (Fig 4.1's fictional nodes for expression arguments). It
// returns the pending reads no argument consumed, and invokes bound for
// each created node so callees can map them to parameter slots.
func (b *refBuilder) bindParams(e *trace.Event, sub *Node, bound func(i int, pn NodeID)) map[NodeID]int {
	argVars := b.argVars(b.top().fnName, e.Stmt, e.FuncIdx)
	consumed := make(map[NodeID]bool)
	for i, argv := range e.Args {
		pn := b.g.newRefNode(&Node{
			Kind: NodeParam, Stmt: e.Stmt,
			Label: fmt.Sprintf("%%%d", i+1), Value: argv, HasValue: true, Var: -1,
		})
		for dep, v := range b.pendingDeps {
			attach := false
			switch {
			case v == -1:
				// A nested call's or recv's result: it fed some argument;
				// without finer structure, attach to every parameter node.
				attach = true
			case i < len(argVars):
				for _, av := range argVars[i] {
					if av == v {
						attach = true
						break
					}
				}
			default:
				attach = true // no static info: attach conservatively
			}
			if attach {
				b.g.addRefEdge(EdgeData, dep, pn.ID, v)
				consumed[dep] = true
			}
		}
		b.g.addRefEdge(EdgeData, pn.ID, sub.ID, -1)
		if bound != nil {
			bound(i, pn.ID)
		}
	}
	remaining := make(map[NodeID]int)
	for dep, v := range b.pendingDeps {
		if !consumed[dep] {
			remaining[dep] = v
		}
	}
	return remaining
}

// argVars resolves, per argument position, the variable space indices the
// argument expression reads, using the AST (cached per call site).
func (b *refBuilder) argVars(fnName string, stmt ast.StmtID, calleeIdx int) [][]int {
	if b.argVarsCache == nil {
		b.argVarsCache = make(map[refArgVarsKey][][]int)
	}
	key := refArgVarsKey{fn: fnName, stmt: stmt, callee: calleeIdx}
	if v, ok := b.argVarsCache[key]; ok {
		return v
	}
	var out [][]int
	st := b.art.Info.Prog.StmtByID(stmt)
	fi := b.art.Info.Funcs[fnName]
	if st != nil && fi != nil && calleeIdx >= 0 && calleeIdx < len(b.art.Prog.Funcs) {
		calleeName := b.art.Prog.Funcs[calleeIdx].Name
		space := b.art.PDG.Funcs[fnName].Space
		var call *ast.CallExpr
		ast.Inspect(st, func(n ast.Node) bool {
			if call != nil {
				return false
			}
			// Do not descend into nested statements: they are separate
			// trace events.
			switch n.(type) {
			case *ast.BlockStmt:
				return false
			}
			if ce, ok := n.(*ast.CallExpr); ok && ce.Fun.Name == calleeName {
				call = ce
				return false
			}
			return true
		})
		if call != nil {
			for _, arg := range call.Args {
				var vars []int
				ast.Inspect(arg, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if sym := b.art.Info.Uses[id]; sym != nil {
							if idx := space.Index(sym); idx >= 0 {
								vars = append(vars, idx)
							}
						}
					}
					return true
				})
				out = append(out, vars)
			}
		}
	}
	b.argVarsCache[key] = out
	return out
}

// corpusProgram is one program of the equivalence corpus.
type corpusProgram struct {
	name, src string
}

// equivalenceCorpus is the standard workloads, the triage families at
// small sizes, every testdata program, and generated parallel and racy
// programs.
func equivalenceCorpus(t *testing.T) []corpusProgram {
	t.Helper()
	var out []corpusProgram
	add := func(w *workloads.Workload) { out = append(out, corpusProgram{w.Name, w.Src}) }
	for _, w := range workloads.Standard() {
		add(w)
	}
	for _, w := range []*workloads.Workload{
		workloads.Relay(3, 15), workloads.Relay(4, 30), workloads.TokenRing(3, 30),
		workloads.ProdCons(150), workloads.RacyTicker(2, 10), workloads.GuardedCounter(3, 20),
		workloads.Sharded(3, 10), workloads.RacyCounter(2, 10, false),
	} {
		add(w)
	}
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
	for seed := int64(0); seed < 20; seed++ {
		out = append(out,
			corpusProgram{fmt.Sprintf("mplgen-parallel-%d", seed), mplgen.Generate(seed, mplgen.ParallelConfig())},
			corpusProgram{fmt.Sprintf("mplgen-racy-%d", seed), mplgen.Generate(seed, mplgen.RacyConfig())})
	}
	return out
}

// maxIntervalsPerProc caps the prelog intervals checked per process (the
// focus interval is always checked).
const maxIntervalsPerProc = 24

// forEachInterval compiles p twice, fresh and through a warm artifact
// cache in dir, runs the fresh program logged, then calls fn for a spread
// of every process's prelog intervals and its focus interval.
func forEachInterval(t *testing.T, p corpusProgram, dir string, fn func(art, cached *compile.Artifacts, em *emulation.Emulator, idx int, rootFn string)) {
	t.Helper()
	art, err := compile.CompileSource(p.name, p.src, eblock.DefaultConfig())
	if err != nil {
		t.Fatalf("%s: compile: %v", p.name, err)
	}
	var cached *compile.Artifacts
	for _, pass := range []string{"cold", "warm"} {
		sink := obs.New()
		if cached, err = compile.CompileCached(source.NewFile(p.name, p.src), eblock.DefaultConfig(), dir, 0, sink); err != nil {
			t.Fatalf("%s: %s cached compile: %v", p.name, pass, err)
		}
		if pass == "warm" && sink.Snapshot().Counters["compile.cache.hits"] != 1 {
			t.Fatalf("%s: warm compile missed the cache", p.name)
		}
	}
	defer func() {
		if cached.Hydrated() {
			t.Errorf("%s: building from the cache-loaded artifacts hydrated them", p.name)
		}
	}()
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: 1})
	_ = v.Run()
	for pid, book := range v.Log.Books {
		em := emulation.New(art.Prog, book)
		var prelogs []int
		for i, r := range book.Records {
			if r.Kind == logging.RecPrelog {
				prelogs = append(prelogs, i)
			}
		}
		picked := map[int]bool{}
		for k := 0; k < len(prelogs) && k < maxIntervalsPerProc; k++ {
			picked[prelogs[k*len(prelogs)/min(len(prelogs), maxIntervalsPerProc)]] = true
		}
		if focus := em.FindLastOpenPrelog(); focus >= 0 {
			picked[focus] = true
		} else if first := em.FirstPrelog(); first >= 0 {
			picked[first] = true
		}
		idxs := make([]int, 0, len(picked))
		for idx := range picked {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			f, err := em.IntervalFunc(idx)
			if err != nil {
				t.Fatalf("%s P%d interval %d: %v", p.name, pid+1, idx, err)
			}
			fn(art, cached, em, idx, f.Name)
		}
	}
}

// TestBuilderMatchesReference pins the streaming Builder to the reference
// builder: on every checked interval of the corpus both produce the same
// node list (kind, statement, label, value, variable) and, per node, the
// same multiset of incoming edges. The graph streamed from the emulator
// must also equal the one built from the stored trace, byte for byte, and
// so must the graph built from cache-loaded artifacts, whose statement
// table is the builder's only static input.
func TestBuilderMatchesReference(t *testing.T) {
	intervals := 0
	dir := t.TempDir()
	for _, p := range equivalenceCorpus(t) {
		forEachInterval(t, p, dir, func(art, cached *compile.Artifacts, em *emulation.Emulator, idx int, rootFn string) {
			intervals++
			res, err := em.Emulate(idx)
			if err != nil {
				t.Fatalf("%s interval %d: emulate: %v", p.name, idx, err)
			}
			got := Build(art, res.Trace, rootFn)
			want := refBuild(art, res.Trace, rootFn)
			where := fmt.Sprintf("%s interval %d (%s)", p.name, idx, rootFn)
			compareWithReference(t, where, got, want)
			fromCache := Build(cached, res.Trace, rootFn)
			compareWithReference(t, where+" from the cache", fromCache, want)
			if c, g := fromCache.String(), got.String(); c != g {
				t.Errorf("%s: graph from cache-loaded artifacts differs:\n%s\nvs\n%s", where, c, g)
			}

			b := NewBuilder(art, rootFn)
			var sres emulation.Result
			if err := em.EmulateTo(idx, &sres, b); err != nil {
				t.Fatalf("%s: stream: %v", where, err)
			}
			if sres.Trace != nil {
				t.Errorf("%s: streamed emulation stored a trace", where)
			}
			if s, g := b.Graph().String(), got.String(); s != g {
				t.Errorf("%s: streamed graph differs from the stored-trace graph:\n%s\nvs\n%s", where, s, g)
			}
		})
		if t.Failed() {
			t.Logf("program %s:\n%s", p.name, p.src)
			return
		}
	}
	if intervals < 200 {
		t.Errorf("only %d intervals checked; the corpus is too thin", intervals)
	}
	t.Logf("%d intervals equal to the reference", intervals)
}

func compareWithReference(t *testing.T, where string, got *Graph, want *refGraph) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Errorf("%s: %d nodes, reference has %d", where, len(got.Nodes), len(want.Nodes))
		return
	}
	if len(got.Edges) != len(want.Edges) {
		t.Errorf("%s: %d edges, reference has %d", where, len(got.Edges), len(want.Edges))
	}
	for i, n := range got.Nodes {
		w := want.Nodes[i]
		if n.ID != w.ID || n.Seq != w.Seq || n.Kind != w.Kind || n.Stmt != w.Stmt || n.Label != w.Label ||
			n.HasValue != w.HasValue || n.Value != w.Value || n.Var != w.Var {
			t.Errorf("%s: node %d = %+v, reference %+v", where, i, *n, *w)
			return
		}
		if g, r := edgeMultiset(got.Incoming(n.ID)), edgeMultiset(want.incoming[w.ID]); !slices.Equal(g, r) {
			t.Errorf("%s: n%d incoming %v, reference %v", where, i, g, r)
			return
		}
	}
	for _, n := range got.Nodes {
		for _, e := range got.Outgoing(n.ID) {
			if e.From != n.ID {
				t.Errorf("%s: n%d outgoing edge starts at n%d", where, n.ID, e.From)
				return
			}
		}
	}
}

// edgeMultiset renders edges as sorted "kind:from:var" strings.
func edgeMultiset(es []*Edge) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("%s:%d:%d", e.Kind, e.From, e.Var)
	}
	sort.Strings(out)
	return out
}
