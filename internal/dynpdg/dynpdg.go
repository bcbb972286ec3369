// Package dynpdg builds dynamic program dependence graphs (§4.2) from
// traces: the run-time counterpart of the static PDG, with one node per
// executed event and edges for the flow, data, control, and synchronization
// relations the user navigates during flowback analysis. The Builder
// consumes a trace one event at a time, so an emulation can stream its
// events into it without ever storing them.
//
// Node kinds follow Fig 4.1: ENTRY/EXIT, singular nodes (one per executed
// assignment or predicate, labelled with the assigned variable or predicate
// expression and its run-time value), and sub-graph nodes encapsulating a
// call (or a substituted loop). Parameter bindings appear as %1..%n nodes
// and a function's return value as %0; an argument that is an expression
// rather than a single variable gets a fictional singular node (the paper's
// "%3" in Fig 4.1).
package dynpdg

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"ppd/internal/ast"
	"ppd/internal/bytecode"
	"ppd/internal/compile"
	"ppd/internal/logging"
	"ppd/internal/progdb"
	"ppd/internal/trace"
)

// NodeKind classifies dynamic-graph nodes.
type NodeKind int

// Dynamic graph node kinds.
const (
	NodeEntry NodeKind = iota
	NodeExit
	NodeSingular // assignment instance or predicate instance
	NodeSubGraph // call (or substituted loop) instance
	NodeParam    // %n parameter binding (including fictional expression args)
	NodeInitial  // value flowing in from the prelog (pre-interval state)
	NodeSync     // synchronization event instance
)

func (k NodeKind) String() string {
	switch k {
	case NodeEntry:
		return "ENTRY"
	case NodeExit:
		return "EXIT"
	case NodeSingular:
		return "singular"
	case NodeSubGraph:
		return "subgraph"
	case NodeParam:
		return "param"
	case NodeInitial:
		return "initial"
	case NodeSync:
		return "sync"
	}
	return "?"
}

// EdgeKind classifies dynamic-graph edges (§4.2's four types; flow edges are
// implicit in node order and also materialized for completeness).
type EdgeKind int

// Dynamic graph edge kinds.
const (
	EdgeFlow EdgeKind = iota
	EdgeData
	EdgeControl
	EdgeSync
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeFlow:
		return "flow"
	case EdgeData:
		return "data"
	case EdgeControl:
		return "ctrl"
	case EdgeSync:
		return "sync"
	}
	return "?"
}

// NodeID indexes nodes within one Graph.
type NodeID int

// Node is one dynamic-graph node.
type Node struct {
	ID       NodeID
	Kind     NodeKind
	Stmt     ast.StmtID // source statement (NoStmt for ENTRY/EXIT/initial)
	Label    string     // "d", "d>0", "SubD", "%3", ...
	Value    int64      // assigned value / predicate outcome / return value
	HasValue bool

	// Var is the function-space variable index the node defines, or -1.
	Var int

	// Seq is the node's position in execution order.
	Seq int
}

// Edge is one dependence edge.
type Edge struct {
	Kind EdgeKind
	From NodeID
	To   NodeID
	Var  int // data edges: the variable carried; else -1
}

// Graph is the dynamic PDG of one emulated interval (or one full-trace
// process). Nodes and Edges point into the builder's chunked storage, and
// the adjacency is compressed: the edges arriving at node n are
// in[inOff[n]:inOff[n+1]], in creation order, and likewise for out. The
// data edges a statement instance's reads produce are created in
// ascending source-node order, so the graph is the same on every build.
type Graph struct {
	Art   *compile.Artifacts
	Fn    string // root function of the interval
	Nodes []*Node
	Edges []*Edge

	inOff, outOff []int32
	in, out       []*Edge
}

// Incoming returns the edges arriving at n (the flowback direction), in
// creation order.
func (g *Graph) Incoming(n NodeID) []*Edge { return adj(g.in, g.inOff, n) }

// Outgoing returns the edges leaving n, in creation order.
func (g *Graph) Outgoing(n NodeID) []*Edge { return adj(g.out, g.outOff, n) }

func adj(edges []*Edge, off []int32, n NodeID) []*Edge {
	if n < 0 || int(n)+1 >= len(off) {
		return nil
	}
	lo, hi := off[n], off[n+1]
	if lo == hi {
		return nil
	}
	return edges[lo:hi:hi]
}

// LastNode returns the most recently created non-exit node, or nil. It is
// the root the debugger presents first ("the last statement executed").
func (g *Graph) LastNode() *Node {
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		if g.Nodes[i].Kind == NodeSingular || g.Nodes[i].Kind == NodeSubGraph || g.Nodes[i].Kind == NodeSync {
			return g.Nodes[i]
		}
	}
	return nil
}

// NodesForStmt returns all instances of a statement, in execution order.
func (g *Graph) NodesForStmt(id ast.StmtID) []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Stmt == id {
			out = append(out, n)
		}
	}
	return out
}

// Build constructs the dynamic graph from a stored trace. rootFn names the
// function the interval belongs to. It feeds the buffer through the same
// Builder the controller streams emulated events into.
func Build(art *compile.Artifacts, buf *trace.Buffer, rootFn string) *Graph {
	b := NewBuilder(art, rootFn)
	for i := range buf.Events {
		b.event(&buf.Events[i])
	}
	return b.Graph()
}

// Builder constructs a dynamic graph from a trace delivered one event at a
// time. It implements trace.Consumer, so an emulation can stream its
// events straight into it without storing a trace. Its cost is linear in
// the number of events: every lookup is an index into a per-statement,
// per-variable or per-activation table. Its static facts come from the
// program database's statement table (Artifacts.Stmts) alone.
type Builder struct {
	g   *Graph
	art *compile.Artifacts
	tab *progdb.StmtTable

	nodes slab[Node]
	edges slab[Edge]

	acts []activation

	// lastWriteGlobal maps GlobalID -> defining node, or -1 (globals are
	// shared across activations).
	lastWriteGlobal []NodeID

	// stmts holds per-statement build state, indexed by StmtID.
	stmts []stmtMemo

	curStmtNode NodeID // the open statement instance, or -1
	prevNode    NodeID // for flow edges

	// pending holds the reads of the current statement instance: the
	// nodes feeding it, in ascending node order, at most once each.
	pending []pend

	// callSaves holds, per in-flight call, the caller's open statement node
	// and its unconsumed pending reads, so the statement instance resumes
	// when the call returns.
	callSaves []callSave

	// resume, when hasResume is set, continues the saved statement
	// instance at the next EvStmt instead of opening a duplicate node.
	resume    callSave
	hasResume bool

	// spare holds retired pending-read arrays for reuse; consumed is
	// bindParams' scratch.
	spare    [][]pend
	consumed []bool
}

// slab is append-only storage in chunks of doubling size (16, 32, 64, ...
// elements). Elements never move, so pointers to them stay valid, growth
// copies nothing, and at most half the last chunk is slack.
type slab[T any] struct {
	chunks [][]T
	n      int
}

const slabBase = 16

func (s *slab[T]) add(v T) {
	if s.n == slabBase<<len(s.chunks)-slabBase {
		s.chunks = append(s.chunks, make([]T, slabBase<<len(s.chunks)))
	}
	*s.at(s.n) = v
	s.n++
}

// at returns element i: chunk k holds elements [16(2^k-1), 16(2^(k+1)-1)).
func (s *slab[T]) at(i int) *T {
	k := bits.Len(uint(i/slabBase+1)) - 1
	return &s.chunks[k][i-(slabBase<<k-slabBase)]
}

// ptrs returns pointers to every element, in order.
func (s *slab[T]) ptrs() []*T {
	out := make([]*T, 0, s.n)
	for _, c := range s.chunks {
		for i := range c {
			if len(out) == s.n {
				break
			}
			out = append(out, &c[i])
		}
	}
	return out
}

// activation is the builder state for one function instance being walked.
type activation struct {
	numSlots int
	locals   []string // slot names
	// lastWrite maps local slot -> defining node, or -1.
	lastWrite []NodeID
	callNode  NodeID // the sub-graph node in the caller, or -1 for the root
}

// pend is one pending read: the node that defined the value and the
// variable carried (-1 for a call's or recv's result).
type pend struct {
	node NodeID
	v    int
}

type callSave struct {
	stmtNode NodeID
	pending  []pend
}

// stmtMemo is the builder's state for one statement.
type stmtMemo struct {
	// last holds the node IDs + 1 of the statement's two latest instances,
	// newest first (0 = none): where control edges come from.
	last [2]int32
}

// NewBuilder starts the graph of an interval of rootFn: the ENTRY node and
// the root activation.
func NewBuilder(art *compile.Artifacts, rootFn string) *Builder {
	b := &Builder{
		g:               &Graph{Art: art, Fn: rootFn},
		art:             art,
		tab:             art.Stmts,
		lastWriteGlobal: make([]NodeID, len(art.Prog.Globals)),
		stmts:           make([]stmtMemo, len(art.Stmts.Stmts)),
		curStmtNode:     -1,
	}
	for i := range b.lastWriteGlobal {
		b.lastWriteGlobal[i] = -1
	}
	fn := art.Prog.FuncByName(rootFn)
	b.prevNode = b.newNode(Node{Kind: NodeEntry, Label: "ENTRY:" + rootFn, Var: -1})
	b.pushActivation(fn, -1)
	return b
}

// Consume adds one trace event to the graph.
func (b *Builder) Consume(e trace.Event) { b.event(&e) }

// Graph finishes the build — the reads still pending, the EXIT node, the
// adjacency — and returns the graph. Call it once, after the last event.
func (b *Builder) Graph() *Graph {
	if b.curStmtNode >= 0 && len(b.pending) > 0 {
		b.flushDeps(b.curStmtNode)
	}
	exit := b.newNode(Node{Kind: NodeExit, Label: "EXIT:" + b.g.Fn, Var: -1})
	b.addEdge(EdgeFlow, b.prevNode, exit, -1)

	g := b.g
	g.Nodes = b.nodes.ptrs()
	g.Edges = b.edges.ptrs()
	g.in, g.inOff = csr(g.Edges, len(g.Nodes), true)
	g.out, g.outOff = csr(g.Edges, len(g.Nodes), false)
	return g
}

// csr groups edges by target (byTo) or by source, keeping creation order
// within each group (a counting sort), and returns the grouped edges with
// the n+1 group offsets.
func csr(edges []*Edge, n int, byTo bool) ([]*Edge, []int32) {
	key := func(e *Edge) NodeID {
		if byTo {
			return e.To
		}
		return e.From
	}
	off := make([]int32, n+1)
	for _, e := range edges {
		off[key(e)+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	out := make([]*Edge, len(edges))
	for _, e := range edges {
		k := key(e)
		out[off[k]] = e
		off[k]++
	}
	// Placement advanced each off[k] to the start of group k+1.
	copy(off[1:], off[:n])
	off[0] = 0
	return out, off
}

func (b *Builder) newNode(n Node) NodeID {
	id := NodeID(b.nodes.n)
	n.ID, n.Seq = id, int(id)
	b.nodes.add(n)
	if n.Stmt != ast.NoStmt {
		m := b.memo(n.Stmt)
		m.last[1], m.last[0] = m.last[0], int32(id)+1
	}
	return id
}

func (b *Builder) addEdge(kind EdgeKind, from, to NodeID, v int) {
	b.edges.add(Edge{Kind: kind, From: from, To: to, Var: v})
}

// memo returns the statement's memo entry.
func (b *Builder) memo(id ast.StmtID) *stmtMemo {
	for int(id) >= len(b.stmts) {
		b.stmts = append(b.stmts, stmtMemo{})
	}
	return &b.stmts[id]
}

// stmtLabel returns the statement's text, or "s?" when no statement has
// the ID.
func (b *Builder) stmtLabel(id ast.StmtID) string {
	if r := b.tab.Stmt(id); r != nil {
		return r.Text
	}
	return "s?"
}

func (b *Builder) top() *activation { return &b.acts[len(b.acts)-1] }

// pushActivation enters a function instance, reusing the slot table of the
// last activation popped at this depth.
func (b *Builder) pushActivation(fn *bytecode.Func, callNode NodeID) *activation {
	n := len(b.acts)
	if n < cap(b.acts) {
		b.acts = b.acts[:n+1]
	} else {
		b.acts = append(b.acts, activation{})
	}
	a := &b.acts[n]
	lw := a.lastWrite[:0]
	for i := 0; i < fn.NumSlots; i++ {
		lw = append(lw, -1)
	}
	*a = activation{
		numSlots:  fn.NumSlots,
		locals:    b.tab.Funcs[fn.Idx].Locals,
		lastWrite: lw,
		callNode:  callNode,
	}
	return a
}

// setDef records node n as the latest definition of v in act.
func (b *Builder) setDef(act *activation, v int, n NodeID) {
	if v >= act.numSlots {
		b.lastWriteGlobal[v-act.numSlots] = n
	} else {
		act.lastWrite[v] = n
	}
}

// defNodeFor returns (creating on demand) the node that defined var v as
// seen by the current activation. Unknown definitions become NodeInitial
// nodes: values that flowed in from the prelog (pre-interval state or
// another process — the controller resolves those across the parallel
// graph).
func (b *Builder) defNodeFor(v int) NodeID {
	act := b.top()
	if v >= act.numSlots { // global
		gid := v - act.numSlots
		if n := b.lastWriteGlobal[gid]; n >= 0 {
			return n
		}
		name := b.art.Prog.Globals[gid].Name
		n := b.newNode(Node{Kind: NodeInitial, Label: name + "@pre", Var: v})
		b.lastWriteGlobal[gid] = n
		return n
	}
	if n := act.lastWrite[v]; n >= 0 {
		return n
	}
	// A local read before any traced write: a parameter (bound at entry)
	// or prelog-restored loop local.
	n := b.newNode(Node{Kind: NodeInitial, Label: localName(act, v) + "@pre", Var: v})
	act.lastWrite[v] = n
	return n
}

func localName(act *activation, slot int) string {
	if slot < len(act.locals) {
		return act.locals[slot]
	}
	return fmt.Sprintf("slot%d", slot)
}

func (b *Builder) varName(act *activation, v int) string {
	if v < 0 {
		return "?"
	}
	if v >= act.numSlots {
		return b.art.Prog.Globals[v-act.numSlots].Name
	}
	return localName(act, v)
}

// openNode adds a statement-instance node after the previous node in
// execution order, with its flow edge and control edges.
func (b *Builder) openNode(n Node) NodeID {
	id := b.newNode(n)
	b.addEdge(EdgeFlow, b.prevNode, id, -1)
	b.prevNode = id
	b.attachControl(id)
	return id
}

// attachControl adds the control-dependence edge from the most recent
// instance of each of the statement's static controlling predicates.
func (b *Builder) attachControl(id NodeID) {
	stmt := b.nodes.at(int(id)).Stmt
	if stmt == ast.NoStmt {
		return
	}
	r := b.tab.Stmt(stmt)
	if r == nil {
		return
	}
	for _, dep := range r.Ctrl {
		m := b.memo(dep)
		src := NodeID(m.last[0]) - 1
		if src == id {
			src = NodeID(m.last[1]) - 1
		}
		if src >= 0 {
			b.addEdge(EdgeControl, src, id, -1)
		}
	}
}

// openStmt starts a node for a new statement instance, first flushing any
// reads still pending on the previous one (statements without writes or
// predicate outcomes — returns, prints, sends — keep their reads this way).
func (b *Builder) openStmt(stmt ast.StmtID, label string) {
	if b.curStmtNode >= 0 && len(b.pending) > 0 {
		b.flushDeps(b.curStmtNode)
	}
	b.curStmtNode = b.openNode(Node{Kind: NodeSingular, Stmt: stmt, Label: label, Var: -1})
}

// addPending records a read of node's value, keeping the list in
// ascending node order; a repeated node keeps the latest variable.
func (b *Builder) addPending(node NodeID, v int) {
	p := b.pending
	i := len(p)
	for i > 0 && p[i-1].node > node {
		i--
	}
	if i > 0 && p[i-1].node == node {
		p[i-1].v = v
		return
	}
	p = append(p, pend{})
	copy(p[i+1:], p[i:])
	p[i] = pend{node, v}
	b.pending = p
}

// takePending returns an empty pending list, reusing a retired array when
// one is available.
func (b *Builder) takePending() []pend {
	if n := len(b.spare); n > 0 {
		p := b.spare[n-1]
		b.spare = b.spare[:n-1]
		return p[:0]
	}
	return nil
}

// retire returns a pending list's array for reuse.
func (b *Builder) retire(p []pend) {
	if cap(p) > 0 {
		b.spare = append(b.spare, p)
	}
}

// setResume arms the statement continuation, retiring any unused one.
func (b *Builder) setResume(s callSave) {
	if b.hasResume {
		b.retire(b.resume.pending)
	}
	b.resume, b.hasResume = s, true
}

func (b *Builder) event(e *trace.Event) {
	act := b.top()
	switch e.Kind {
	case trace.EvStmt:
		if b.hasResume {
			r := b.resume
			b.hasResume = false
			if r.stmtNode >= 0 && b.nodes.at(int(r.stmtNode)).Stmt == e.Stmt {
				// Continuation of the statement instance that contained the
				// just-returned call: keep its node and restored reads.
				b.curStmtNode = r.stmtNode
				b.retire(b.pending)
				b.pending = r.pending
				return
			}
			b.retire(r.pending)
		}
		b.openStmt(e.Stmt, b.stmtLabel(e.Stmt))
		b.pending = b.pending[:0]

	case trace.EvRead:
		def := b.defNodeFor(e.Var)
		if b.curStmtNode >= 0 {
			b.addPending(def, e.Var)
		}

	case trace.EvWrite:
		if b.curStmtNode < 0 {
			return
		}
		n := b.nodes.at(int(b.curStmtNode))
		if n.Kind == NodeSubGraph {
			// A substituted interval's postlog values: the sub-graph node
			// becomes the definition site of everything it wrote.
			b.setDef(act, e.Var, n.ID)
			return
		}
		n.Label = b.varName(act, e.Var)
		n.Value = e.Value
		n.HasValue = true
		n.Var = e.Var
		b.flushDeps(n.ID)
		b.setDef(act, e.Var, n.ID)

	case trace.EvPred:
		if b.curStmtNode < 0 {
			return
		}
		n := b.nodes.at(int(b.curStmtNode))
		n.Value = e.Value
		n.HasValue = true
		b.flushDeps(n.ID)

	case trace.EvCallBegin:
		callee := b.art.Prog.Funcs[e.FuncIdx]
		sub := b.openNode(Node{Kind: NodeSubGraph, Stmt: e.Stmt, Label: callee.Name, Var: -1})
		remaining := b.bindParams(e, sub)
		b.callSaves = append(b.callSaves, callSave{stmtNode: b.curStmtNode, pending: remaining})
		b.pending = b.takePending()
		// bindParams created %1..%n right after the sub-graph node; they
		// define the callee's parameter slots.
		newAct := b.pushActivation(callee, sub)
		for i := range e.Args {
			if i < len(callee.ParamSlots) {
				newAct.lastWrite[callee.ParamSlots[i]] = sub + 1 + NodeID(i)
			}
		}
		b.curStmtNode = -1

	case trace.EvCallEnd:
		finished := b.acts[len(b.acts)-1]
		b.acts = b.acts[:len(b.acts)-1]
		if finished.callNode >= 0 {
			sub := b.nodes.at(int(finished.callNode))
			if e.HasValue {
				sub.Value = e.Value
				sub.HasValue = true
			}
			// Resume the caller's statement instance: the call's result
			// (%0) feeds whatever consumes it, alongside the reads that
			// preceded the call.
			save := callSave{stmtNode: -1, pending: b.takePending()}
			if n := len(b.callSaves); n > 0 {
				save = b.callSaves[n-1]
				b.callSaves = b.callSaves[:n-1]
			}
			save.pending = append(save.pending, pend{sub.ID, -1})
			b.setResume(save)
			b.curStmtNode = -1
			b.pending = append(b.pending[:0], pend{sub.ID, -1})
			b.prevNode = sub.ID
		}

	case trace.EvCallSkipped:
		label := "loop"
		if e.FuncIdx >= 0 {
			label = b.art.Prog.Funcs[e.FuncIdx].Name
		}
		sub := b.openNode(Node{
			Kind: NodeSubGraph, Stmt: e.Stmt, Label: label,
			Value: e.Value, HasValue: e.HasValue, Var: -1,
		})
		remaining := b.bindParams(e, sub)
		remaining = append(remaining, pend{sub, -1})
		b.setResume(callSave{stmtNode: b.curStmtNode, pending: remaining})
		b.pending = append(b.takePending(), pend{sub, -1})
		// The substituted postlog's EvWrite events follow; route them
		// through the sub-graph node by making it current.
		b.curStmtNode = sub

	case trace.EvSync:
		r := b.tab.Stmt(e.Stmt)
		stLabel := e.Op.String()
		if r != nil {
			stLabel = r.Text
		}
		// Pure synchronization statements (P, V, send, spawn) become a
		// single sync node: convert the statement's open singular node
		// rather than adding a second one.
		if r != nil && r.Sync && b.curStmtNode >= 0 && b.nodes.at(int(b.curStmtNode)).Stmt == e.Stmt {
			n := b.nodes.at(int(b.curStmtNode))
			n.Kind = NodeSync
			b.flushDeps(n.ID) // send values / spawn arguments feed the event
			b.curStmtNode = -1
			return
		}
		n := b.openNode(Node{Kind: NodeSync, Stmt: e.Stmt, Label: stLabel, Var: -1})
		if e.Op == logging.OpRecv {
			// The received value flows into whatever consumes it; the
			// enclosing statement (var v = recv(c)) stays current so its
			// store lands on its own node.
			b.addPending(n, -1)
		}

	case trace.EvEnd:
		// handled by Graph's EXIT node
	}
}

// flushDeps turns the pending reads into data edges into to, in ascending
// source-node order, and clears them.
func (b *Builder) flushDeps(to NodeID) {
	for _, p := range b.pending {
		if p.node != to {
			b.addEdge(EdgeData, p.node, to, p.v)
		}
	}
	b.pending = b.pending[:0]
}

// String renders the graph compactly for golden tests: one line per node
// with its incoming data/control edges.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&sb, "n%d %s", n.ID, n.Kind)
		if n.Stmt != ast.NoStmt {
			fmt.Fprintf(&sb, " s%d", n.Stmt)
		}
		fmt.Fprintf(&sb, " [%s]", n.Label)
		if n.HasValue {
			fmt.Fprintf(&sb, "=%d", n.Value)
		}
		var deps []string
		for _, e := range g.Incoming(n.ID) {
			if e.Kind == EdgeFlow {
				continue
			}
			deps = append(deps, fmt.Sprintf("%s:n%d", e.Kind, e.From))
		}
		if len(deps) > 0 {
			fmt.Fprintf(&sb, " <- %s", strings.Join(deps, ","))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// paramLabels are the %1..%n labels of the common arities.
var paramLabels = func() []string {
	out := make([]string, 16)
	for i := range out {
		out[i] = fmt.Sprintf("%%%d", i+1)
	}
	return out
}()

func paramLabel(i int) string {
	if i < len(paramLabels) {
		return paramLabels[i]
	}
	return fmt.Sprintf("%%%d", i+1)
}

// bindParams creates the %1..%n parameter nodes of a call, attaching to
// each the pending reads that statically belong to that argument's
// expression (Fig 4.1's fictional nodes for expression arguments). It
// returns the pending reads no argument consumed, filtered in place: the
// caller hands b.pending's array to the result and takes a fresh one.
func (b *Builder) bindParams(e *trace.Event, sub NodeID) []pend {
	argVars := b.tab.ArgVars(e.Stmt, e.FuncIdx)
	consumed := b.consumed[:0]
	for range b.pending {
		consumed = append(consumed, false)
	}
	for i, argv := range e.Args {
		pn := b.newNode(Node{
			Kind: NodeParam, Stmt: e.Stmt,
			Label: paramLabel(i), Value: argv, HasValue: true, Var: -1,
		})
		for j, p := range b.pending {
			attach := true // no static info: attach conservatively
			switch {
			case p.v == -1:
				// A nested call's or recv's result: it fed some argument;
				// without finer structure, attach to every parameter node.
			case i < len(argVars):
				attach = slices.Contains(argVars[i], p.v)
			}
			if attach {
				b.addEdge(EdgeData, p.node, pn, p.v)
				consumed[j] = true
			}
		}
		b.addEdge(EdgeData, pn, sub, -1)
	}
	remaining := b.pending[:0]
	for j, p := range b.pending {
		if !consumed[j] {
			remaining = append(remaining, p)
		}
	}
	b.consumed = consumed
	return remaining
}
