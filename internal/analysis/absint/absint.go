package absint

import (
	"fmt"
	"sort"
	"strings"

	"ppd/internal/ast"
	"ppd/internal/cfg"
	"ppd/internal/pdg"
	"ppd/internal/sem"
	"ppd/internal/source"
	"ppd/internal/token"
)

// Fingerprint versions the abstract interpreter for the artifact-cache key:
// any change to the domain, transfer functions, or fixpoint order must bump
// it so stale cached facts (and the certificates derived from them) miss.
const Fingerprint = "absint-v1"

// Finding is one raw report from the engine, converted into the shared
// Diagnostic type by the vet passes (which own positions and severities'
// final rendering). Warn maps to Warning severity; otherwise Info.
type Finding struct {
	Pass    string // "divzero", "bounds", or "deadbranch"
	Code    string // diagnostic code, e.g. "div-by-zero"
	Warn    bool
	Pos     source.Pos
	Message string
}

// GuardedVar records that every access to shared variable Gid is provably
// made while holding lock-like semaphore Sem (see lockset.go).
type GuardedVar struct {
	Gid int
	Sem int
}

// Facts is the engine's full output. DivSafe/IdxSafe hold only true
// entries: statement S present means every division (resp. indexed access)
// in S is proven to never trap — the safety certificate fusion widening
// consumes. StmtIDs are program-unique, so the maps are flat.
type Facts struct {
	DivSafe map[ast.StmtID]bool
	IdxSafe map[ast.StmtID]bool

	Findings []Finding
	Guarded  []GuardedVar

	// Counters surfaced through vet -json (facts.intervals etc.): bounded
	// interval facts and nonzero facts over reachable (node, slot) states,
	// and statements analyzed under a nonempty must-held lockset.
	Intervals    int
	NonzeroFacts int
	LocksetStmts int
}

// Dump renders every fact deterministically; the fuzz target pins that two
// engine runs over the same program produce identical dumps.
func (f *Facts) Dump() string {
	var sb strings.Builder
	dumpIDs := func(label string, m map[ast.StmtID]bool) {
		ids := make([]int, 0, len(m))
		for id := range m {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		fmt.Fprintf(&sb, "%s: %v\n", label, ids)
	}
	dumpIDs("divsafe", f.DivSafe)
	dumpIDs("idxsafe", f.IdxSafe)
	for _, fd := range f.Findings {
		fmt.Fprintf(&sb, "finding %s/%s warn=%t pos=%d %s\n", fd.Pass, fd.Code, fd.Warn, fd.Pos, fd.Message)
	}
	for _, g := range f.Guarded {
		fmt.Fprintf(&sb, "guarded g%d by s%d\n", g.Gid, g.Sem)
	}
	fmt.Fprintf(&sb, "counts: intervals=%d nonzero=%d lockset=%d\n",
		f.Intervals, f.NonzeroFacts, f.LocksetStmts)
	return sb.String()
}

// env is the per-program-point abstract state: one Val per frame slot.
// A nil env is ⊥ (the point is unreachable).
type env []Val

func envClone(e env) env {
	if e == nil {
		return nil
	}
	out := make(env, len(e))
	copy(out, e)
	return out
}

func envJoin(a, b env) env {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(env, len(a))
	for i := range a {
		out[i] = Join(a[i], b[i])
	}
	return out
}

func envWiden(old, new env) env {
	if old == nil {
		return new
	}
	if new == nil {
		return old
	}
	out := make(env, len(old))
	for i := range old {
		out[i] = Widen(old[i], new[i])
	}
	return out
}

func envEq(a, b env) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recorder collects findings and per-statement certificate facts during
// the final (post-fixpoint) pass; nil while iterating to fixpoint.
type recorder struct {
	e               *engine
	divSeen, divAll bool
	idxSeen, idxAll bool
}

type engine struct {
	p    *pdg.Program
	info *sem.Info

	// globalVal abstracts each scalar global: a constant when nothing in
	// the program ever writes it (initializer value), else ⊤. elemVal is
	// the same for array elements (0 when the array is never written).
	globalVal []Val
	elemVal   []Val

	// ret maps each function to the abstract join of its return values,
	// iterated to an interprocedural fixpoint (parameters stay ⊤).
	ret map[string]Val

	// memo keeps, per function (FuncList order), its last analysis. While
	// recording, reads collects the callee return values the analysis in
	// progress reads.
	memo      []funcMemo
	reads     []retRead
	recording bool
	analyses  int // analyzeFunc runs, for the memo's tests

	facts *Facts
}

// funcMemo is one function's last analysis: its node states, its return
// value, and every callee return value the two read. With rec == nil an
// analysis depends on nothing else that changes between rounds, so while
// those callee values are unchanged a rerun would reproduce it exactly.
type funcMemo struct {
	states []env
	ret    Val
	reads  []retRead
	done   bool
}

// retRead is one read of a callee's return value.
type retRead struct {
	callee string
	val    Val
}

// Analyze runs the abstract interpreter over the whole program and
// returns its facts. The result is deterministic: functions are visited
// in FuncList order, nodes in CFG id order, and every fixpoint uses a
// fixed reverse-postorder schedule.
func Analyze(p *pdg.Program) *Facts {
	return newEngine(p).run()
}

func newEngine(p *pdg.Program) *engine {
	return &engine{
		p:    p,
		info: p.Info,
		ret:  make(map[string]Val, len(p.Info.FuncList)),
		memo: make([]funcMemo, len(p.Info.FuncList)),
	}
}

// run analyzes each function again only when a callee return value its
// last analysis read has changed, and hands the recording pass the kept
// states.
func (e *engine) run() *Facts {
	p := e.p
	for _, fi := range p.Info.FuncList {
		e.ret[fi.Name()] = Bottom()
	}
	e.computeGlobals()

	// Interprocedural return-value rounds: ascending from ⊥ with widening
	// after the first few rounds; the threshold chain bounds each value's
	// height, so the cap is defensive only.
	const maxRounds = 24
	stable := false
	for round := 0; round < maxRounds && !stable; round++ {
		stable = true
		for i, fi := range p.Info.FuncList {
			fp := p.Funcs[fi.Name()]
			if fp == nil {
				continue
			}
			nv := e.analyzed(i, fp).ret
			old := e.ret[fi.Name()]
			merged := Join(old, nv)
			if round >= 3 {
				merged = Widen(old, merged)
			}
			if merged != old {
				e.ret[fi.Name()] = merged
				stable = false
			}
		}
	}
	if !stable {
		for name := range e.ret {
			e.ret[name] = Top()
		}
	}

	facts := &Facts{
		DivSafe: make(map[ast.StmtID]bool),
		IdxSafe: make(map[ast.StmtID]bool),
	}
	e.facts = facts
	for i, fi := range p.Info.FuncList {
		fp := p.Funcs[fi.Name()]
		if fp == nil {
			continue
		}
		e.record(fp, e.analyzed(i, fp).states)
	}
	e.locksets()
	return facts
}

// analyzed returns function i's analysis under the current return values,
// rerunning it only when a callee value it read has changed since.
func (e *engine) analyzed(i int, fp *pdg.FuncPDG) *funcMemo {
	m := &e.memo[i]
	if m.done && e.readsCurrent(m.reads) {
		return m
	}
	e.reads, e.recording = m.reads[:0], true
	m.states = e.analyzeFunc(fp)
	m.ret = e.returnVal(fp, m.states)
	m.reads, m.done = e.reads, true
	e.reads, e.recording = nil, false
	return m
}

// readsCurrent reports whether every recorded read still sees its value.
func (e *engine) readsCurrent(reads []retRead) bool {
	for _, r := range reads {
		if e.ret[r.callee] != r.val {
			return false
		}
	}
	return true
}

// computeGlobals fills globalVal/elemVal: a global no statement anywhere
// defines keeps its (constant-folded) initializer forever; anything
// written by any function — in any process — is ⊤.
func (e *engine) computeGlobals() {
	n := e.info.NumGlobals()
	e.globalVal = make([]Val, n)
	e.elemVal = make([]Val, n)
	written := make([]bool, n)
	for _, fi := range e.info.FuncList {
		if sum := e.p.Inter.Summaries[fi.Name()]; sum != nil {
			sum.DirectDefined.ForEach(func(g int) { written[g] = true })
		}
	}
	for gid, sym := range e.info.Globals {
		e.globalVal[gid] = Top()
		e.elemVal[gid] = Top()
		if sym.Kind != sem.SymGlobal || written[gid] {
			continue
		}
		if sym.Type.Kind == ast.TypeArray {
			e.elemVal[gid] = Const(0) // never-written array: all elements 0
			continue
		}
		if d := e.globalDecl(sym.Name); d != nil && d.Init != nil {
			if k, ok := constEval(d.Init); ok {
				e.globalVal[gid] = Const(k)
			}
		} else {
			e.globalVal[gid] = Const(0)
		}
	}
}

func (e *engine) globalDecl(name string) *ast.GlobalDecl {
	for _, d := range e.info.Prog.Globals {
		if d.Name.Name == name {
			return d
		}
	}
	return nil
}

// constEval folds a constant initializer expression.
func constEval(x ast.Expr) (int64, bool) {
	switch x := x.(type) {
	case *ast.IntLit:
		return x.Value, true
	case *ast.BoolLit:
		if x.Value {
			return 1, true
		}
		return 0, true
	case *ast.ParenExpr:
		return constEval(x.X)
	case *ast.UnaryExpr:
		v, ok := constEval(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case token.SUB:
			return -v, true
		case token.NOT:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *ast.BinaryExpr:
		a, ok1 := constEval(x.X)
		b, ok2 := constEval(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case token.ADD:
			return a + b, true
		case token.SUB:
			return a - b, true
		case token.MUL:
			return a * b, true
		case token.QUO:
			if b != 0 {
				return a / b, true
			}
		case token.REM:
			if b != 0 {
				return a % b, true
			}
		}
	}
	return 0, false
}

// entryEnv is the state at function entry: parameters ⊤ (no call-site
// argument joining — the deliberate scoping cut that keeps the analysis
// cheap and context-insensitive), remaining locals 0 (the VM zero-fills
// frames, and scoping guarantees declarations dominate uses anyway).
func (e *engine) entryEnv(fp *pdg.FuncPDG) env {
	out := make(env, fp.Fn.NumSlots)
	np := len(fp.Fn.Params)
	for i := range out {
		if i < np {
			out[i] = Top()
		} else {
			out[i] = Const(0)
		}
	}
	return out
}

func rpoOrder(g *cfg.Graph) []cfg.NodeID {
	seen := make([]bool, len(g.Nodes))
	post := make([]cfg.NodeID, 0, len(g.Nodes))
	var dfs func(cfg.NodeID)
	dfs = func(u cfg.NodeID) {
		seen[u] = true
		for _, v := range g.Nodes[u].Succs {
			if !seen[v] {
				dfs(v)
			}
		}
		post = append(post, u)
	}
	dfs(cfg.EntryNode)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

func loopHeads(g *cfg.Graph) map[cfg.NodeID]bool {
	heads := make(map[cfg.NodeID]bool, len(g.Loops))
	for _, l := range g.Loops {
		heads[l.Head] = true
	}
	return heads
}

// analyzeFunc runs the intraprocedural fixpoint for one function and
// returns the entry state of every CFG node (nil = unreachable).
func (e *engine) analyzeFunc(fp *pdg.FuncPDG) []env {
	e.analyses++
	g := fp.CFG
	nn := len(g.Nodes)
	in := make([]env, nn)
	in[cfg.EntryNode] = e.entryEnv(fp)
	rpo := rpoOrder(g)
	heads := loopHeads(g)

	const maxPasses = 200
	converged := false
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, id := range rpo {
			if in[id] == nil {
				continue
			}
			out := e.transfer(fp, g.Nodes[id], in[id], nil)
			e.propagate(fp, g.Nodes[id], out, func(s cfg.NodeID, delta env) {
				joined := envJoin(in[s], delta)
				if heads[s] && pass >= 2 {
					joined = envWiden(in[s], joined)
				}
				if !envEq(in[s], joined) {
					in[s] = joined
					changed = true
				}
			})
		}
		if !changed {
			converged = true
			break
		}
	}
	if !converged {
		// Defensive: the threshold widening makes this unreachable, but if
		// it ever fires, ⊤ everywhere reachable is the sound stop.
		top := make(env, fp.Fn.NumSlots)
		for i := range top {
			top[i] = Top()
		}
		for i := range in {
			if in[i] != nil {
				in[i] = top
			}
		}
		return in
	}

	// Two narrowing sweeps (Jacobi): recompute every state from its
	// predecessors without widening. From a post-fixpoint the recomputed
	// states only descend, so stopping after a fixed count is sound.
	for k := 0; k < 2; k++ {
		next := make([]env, nn)
		next[cfg.EntryNode] = e.entryEnv(fp)
		for _, id := range rpo {
			if in[id] == nil {
				continue
			}
			out := e.transfer(fp, g.Nodes[id], in[id], nil)
			e.propagate(fp, g.Nodes[id], out, func(s cfg.NodeID, delta env) {
				next[s] = envJoin(next[s], delta)
			})
		}
		in = next
	}
	return in
}

// returnVal joins the abstract values at every reachable return site; a
// reachable fall-through exit contributes the implicit 0.
func (e *engine) returnVal(fp *pdg.FuncPDG, states []env) Val {
	ret := Bottom()
	fallThrough := false
	for _, p := range fp.CFG.Exit().Preds {
		if states[p] == nil {
			continue
		}
		n := fp.CFG.Nodes[p]
		if rs, ok := n.Stmt.(*ast.ReturnStmt); ok && rs.Result != nil {
			ret = Join(ret, e.evalExpr(fp, states[p], rs.Result, nil))
		} else {
			fallThrough = true
		}
	}
	if fallThrough {
		ret = Join(ret, Const(0))
	}
	return ret
}

// transfer applies one node's statement to a state, evaluating every
// expression in it (the evaluations both compute the new state and, when
// rec is set, emit findings and certificate facts).
func (e *engine) transfer(fp *pdg.FuncPDG, n *cfg.Node, st env, rec *recorder) env {
	if n.Stmt == nil {
		return st
	}
	out := envClone(st)
	switch s := n.Stmt.(type) {
	case *ast.VarDeclStmt:
		v := Const(0)
		if s.Type.Kind == ast.TypeArray {
			v = Top() // the slot holds the array itself, not a scalar
		} else if s.Init != nil {
			v = e.evalExpr(fp, out, s.Init, rec)
		}
		if sym := e.info.Uses[s.Name]; sym != nil && sym.Slot >= 0 {
			out[sym.Slot] = v
		}
	case *ast.AssignStmt:
		if s.Index != nil {
			iv := e.evalExpr(fp, out, s.Index, rec)
			e.checkBounds(fp, rec, e.info.Uses[s.LHS], iv, s.Index.Pos())
			e.evalExpr(fp, out, s.RHS, rec)
			break
		}
		rv := e.evalExpr(fp, out, s.RHS, rec)
		if sym := e.info.Uses[s.LHS]; sym != nil && sym.Slot >= 0 {
			out[sym.Slot] = rv
		}
	case *ast.IfStmt:
		e.evalExpr(fp, out, s.Cond, rec)
	case *ast.WhileStmt:
		e.evalExpr(fp, out, s.Cond, rec)
	case *ast.ForStmt:
		if s.Cond != nil {
			e.evalExpr(fp, out, s.Cond, rec)
		}
	case *ast.ReturnStmt:
		if s.Result != nil {
			e.evalExpr(fp, out, s.Result, rec)
		}
	case *ast.SendStmt:
		e.evalExpr(fp, out, s.Value, rec)
	case *ast.SpawnStmt:
		for _, a := range s.Call.Args {
			e.evalExpr(fp, out, a, rec)
		}
	case *ast.ExprStmt:
		e.evalExpr(fp, out, s.X, rec)
	case *ast.PrintStmt:
		for _, a := range s.Args {
			e.evalExpr(fp, out, a, rec)
		}
	}
	return out
}

// evalExpr abstracts one expression under st.
func (e *engine) evalExpr(fp *pdg.FuncPDG, st env, x ast.Expr, rec *recorder) Val {
	switch x := x.(type) {
	case *ast.IntLit:
		return Const(x.Value)
	case *ast.BoolLit:
		if x.Value {
			return Const(1)
		}
		return Const(0)
	case *ast.StringLit:
		return Top()
	case *ast.ParenExpr:
		return e.evalExpr(fp, st, x.X, rec)
	case *ast.Ident:
		sym := e.info.Uses[x]
		if sym == nil {
			return Top()
		}
		if sym.Slot >= 0 {
			return st[sym.Slot]
		}
		if sym.GlobalID >= 0 {
			return e.globalVal[sym.GlobalID]
		}
		return Top()
	case *ast.UnaryExpr:
		v := e.evalExpr(fp, st, x.X, rec)
		if x.Op == token.SUB {
			return Neg(v)
		}
		return Not(v)
	case *ast.BinaryExpr:
		a := e.evalExpr(fp, st, x.X, rec)
		var b Val
		switch x.Op {
		case token.LAND:
			if a.IsZero() {
				return Const(0) // short circuit: Y never evaluated
			}
			b = e.evalExpr(fp, st, x.Y, rec)
			if a.Nonzero() {
				return truthOf(b)
			}
			return Join(truthOf(b), Const(0))
		case token.LOR:
			if a.Nonzero() {
				return Const(1)
			}
			b = e.evalExpr(fp, st, x.Y, rec)
			if a.IsZero() {
				return truthOf(b)
			}
			return Join(truthOf(b), Const(1))
		}
		b = e.evalExpr(fp, st, x.Y, rec)
		switch x.Op {
		case token.ADD:
			return Add(a, b)
		case token.SUB:
			return Sub(a, b)
		case token.MUL:
			return Mul(a, b)
		case token.QUO, token.REM:
			e.checkDiv(rec, x, b)
			if x.Op == token.QUO {
				return Quo(a, b)
			}
			return Rem(a, b)
		case token.LSS:
			return Lss(a, b)
		case token.GTR:
			return Lss(b, a)
		case token.LEQ:
			return Leq(a, b)
		case token.GEQ:
			return Leq(b, a)
		case token.EQL:
			return Eql(a, b)
		case token.NEQ:
			return Not(Eql(a, b))
		}
		return Top()
	case *ast.IndexExpr:
		iv := e.evalExpr(fp, st, x.Index, rec)
		sym := e.info.Uses[x.X]
		e.checkBounds(fp, rec, sym, iv, x.Index.Pos())
		if sym != nil && sym.GlobalID >= 0 {
			return e.elemVal[sym.GlobalID]
		}
		return Top()
	case *ast.CallExpr:
		for _, a := range x.Args {
			e.evalExpr(fp, st, a, rec)
		}
		if fi, ok := e.info.Funcs[x.Fun.Name]; ok && fi.Decl.Result.Kind != ast.TypeVoid {
			v := e.ret[x.Fun.Name]
			if e.recording {
				e.reads = append(e.reads, retRead{x.Fun.Name, v})
			}
			return v
		}
		return Top()
	case *ast.RecvExpr:
		return Top()
	}
	return Top()
}

// truthOf collapses a value to its boolean truth range.
func truthOf(v Val) Val {
	if v.Bot {
		return Bottom()
	}
	if v.IsZero() {
		return Const(0)
	}
	if v.Nonzero() {
		return Const(1)
	}
	return Range(0, 1)
}

// checkDiv classifies one division/modulo by its abstract divisor: proven
// nonzero (certified), provably zero on a reachable path (warning), or
// possibly zero (info). A ⊥ divisor means the operand is never produced,
// so the operation cannot trap.
func (e *engine) checkDiv(rec *recorder, x *ast.BinaryExpr, divisor Val) {
	if rec == nil {
		return
	}
	rec.divSeen = true
	safe := divisor.Bot || divisor.Nonzero()
	if safe {
		return
	}
	rec.divAll = false
	op := "division"
	if x.Op == token.REM {
		op = "modulo"
	}
	if divisor.IsZero() {
		rec.e.addFinding(Finding{
			Pass: "divzero", Code: "div-by-zero", Warn: true, Pos: x.OpPos,
			Message: fmt.Sprintf("%s by zero: divisor is always 0", op),
		})
		return
	}
	rec.e.addFinding(Finding{
		Pass: "divzero", Code: "div-by-zero", Pos: x.OpPos,
		Message: fmt.Sprintf("possible %s by zero: divisor has range %s", op, divisor),
	})
}

// checkBounds classifies one indexed access against the array's static
// length: proven in bounds (certified), provably out on a reachable path
// (warning), or possibly out (silent — the uncertain case is the common
// one and the runtime check stays).
func (e *engine) checkBounds(fp *pdg.FuncPDG, rec *recorder, sym *sem.Symbol, iv Val, pos source.Pos) {
	if rec == nil || sym == nil || sym.Type.Kind != ast.TypeArray {
		return
	}
	rec.idxSeen = true
	ln := int64(sym.Type.Len)
	if iv.Bot || (iv.Lo >= 0 && iv.Hi < ln) {
		return // proven in bounds (or never executed)
	}
	rec.idxAll = false
	if iv.Hi < 0 || iv.Lo >= ln {
		rec.e.addFinding(Finding{
			Pass: "bounds", Code: "index-bounds", Warn: true, Pos: pos,
			Message: fmt.Sprintf("index out of range: index is %s but array '%s' has length %d",
				iv, sym.Name, sym.Type.Len),
		})
	}
}

func (e *engine) addFinding(f Finding) {
	e.facts.Findings = append(e.facts.Findings, f)
}

// String renders a value for diagnostics: [lo,hi] with ∞ spelled out.
func (v Val) String() string {
	if v.Bot {
		return "⊥"
	}
	lo, hi := "-inf", "+inf"
	if v.Lo != NegInf {
		lo = fmt.Sprint(v.Lo)
	}
	if v.Hi != PosInf {
		hi = fmt.Sprint(v.Hi)
	}
	s := "[" + lo + "," + hi + "]"
	if v.NZ {
		s += "!=0"
	}
	return s
}

// ------------------------------------------------------ branch refinement

// condOf extracts a branch node's predicate expression.
func condOf(s ast.Stmt) ast.Expr {
	switch s := s.(type) {
	case *ast.IfStmt:
		return s.Cond
	case *ast.WhileStmt:
		return s.Cond
	case *ast.ForStmt:
		return s.Cond
	}
	return nil
}

// firstExecNode finds the CFG node of the first executable statement in s,
// descending into blocks; -1 when the region is empty.
func firstExecNode(g *cfg.Graph, s ast.Stmt) cfg.NodeID {
	switch st := s.(type) {
	case *ast.BlockStmt:
		for _, x := range st.List {
			if n := firstExecNode(g, x); n >= 0 {
				return n
			}
		}
		return -1
	case *ast.ForStmt:
		if st.Init != nil {
			return g.NodeFor(st.Init.ID())
		}
		return g.NodeFor(st.ID())
	default:
		return g.NodeFor(s.ID())
	}
}

// branchEntries identifies, from the AST (successor order is NOT reliable:
// an empty then-block leaves the false edge first), the CFG nodes entered
// on the true and false sides of a branch node. -1 means unknown (the edge
// goes to a join point or the region is empty).
func branchEntries(g *cfg.Graph, n *cfg.Node) (tEntry, fEntry cfg.NodeID) {
	tEntry, fEntry = -1, -1
	switch s := n.Stmt.(type) {
	case *ast.IfStmt:
		tEntry = firstExecNode(g, s.Then)
		if s.Else != nil {
			fEntry = firstExecNode(g, s.Else)
		}
	case *ast.WhileStmt:
		tEntry = firstExecNode(g, s.Body)
		if tEntry < 0 {
			tEntry = n.ID // empty body: the true edge is the self-loop
		}
	case *ast.ForStmt:
		tEntry = firstExecNode(g, s.Body)
		if tEntry < 0 {
			if s.Post != nil {
				tEntry = g.NodeFor(s.Post.ID())
			} else {
				tEntry = n.ID
			}
		}
	}
	return tEntry, fEntry
}

// propagate delivers a node's out-state to each successor, refining along
// classified true/false edges of branches. Refinement to ⊥ kills the edge
// (precise unreachability for decided conditions).
func (e *engine) propagate(fp *pdg.FuncPDG, n *cfg.Node, out env, deliver func(cfg.NodeID, env)) {
	if !n.IsBranch || n.Stmt == nil {
		for _, s := range n.Succs {
			deliver(s, out)
		}
		return
	}
	cond := condOf(n.Stmt)
	if cond == nil { // for(;;): only the true edge exists, nothing to refine
		for _, s := range n.Succs {
			deliver(s, out)
		}
		return
	}
	tEntry, fEntry := branchEntries(fp.CFG, n)
	for _, s := range n.Succs {
		var want, known bool
		switch {
		case tEntry >= 0 && fEntry >= 0:
			if s == tEntry {
				want, known = true, true
			} else if s == fEntry {
				want, known = false, true
			}
		case tEntry >= 0:
			want, known = s == tEntry, true
		case fEntry >= 0:
			want, known = s != fEntry, true
		}
		if !known {
			deliver(s, out)
			continue
		}
		if refined := e.refineCond(fp, out, cond, want); refined != nil {
			deliver(s, refined)
		}
	}
}

// refineCond returns st narrowed by "cond is want"; nil when the branch
// side is infeasible (⊥).
func (e *engine) refineCond(fp *pdg.FuncPDG, st env, cond ast.Expr, want bool) env {
	cv := e.evalExpr(fp, st, cond, nil)
	if cv.Bot || (want && cv.IsZero()) || (!want && cv.Nonzero()) {
		return nil
	}
	switch x := cond.(type) {
	case *ast.ParenExpr:
		return e.refineCond(fp, st, x.X, want)
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			return e.refineCond(fp, st, x.X, !want)
		}
	case *ast.Ident:
		if sym := e.info.Uses[x]; sym != nil && sym.Slot >= 0 {
			con := Val{Lo: NegInf, Hi: PosInf, NZ: true}
			if !want {
				con = Const(0)
			}
			return e.tightenSlot(st, sym.Slot, con)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			if want {
				t := e.refineCond(fp, st, x.X, true)
				if t == nil {
					return nil
				}
				return e.refineCond(fp, t, x.Y, true)
			}
			a := e.refineCond(fp, st, x.X, false)
			var b env
			if xt := e.refineCond(fp, st, x.X, true); xt != nil {
				b = e.refineCond(fp, xt, x.Y, false)
			}
			return envJoin(a, b)
		case token.LOR:
			if !want {
				f := e.refineCond(fp, st, x.X, false)
				if f == nil {
					return nil
				}
				return e.refineCond(fp, f, x.Y, false)
			}
			a := e.refineCond(fp, st, x.X, true)
			var b env
			if xf := e.refineCond(fp, st, x.X, false); xf != nil {
				b = e.refineCond(fp, xf, x.Y, true)
			}
			return envJoin(a, b)
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			return e.refineCmp(fp, st, x, want)
		}
	}
	return st
}

// refineCmp narrows local operands of a comparison. Only frame slots are
// tightened — globals may be rewritten by other processes.
func (e *engine) refineCmp(fp *pdg.FuncPDG, st env, x *ast.BinaryExpr, want bool) env {
	op := x.Op
	if !want {
		switch op {
		case token.LSS:
			op, want = token.GEQ, true
		case token.LEQ:
			op, want = token.GTR, true
		case token.GTR:
			op, want = token.LEQ, true
		case token.GEQ:
			op, want = token.LSS, true
		case token.EQL:
			op, want = token.NEQ, true
		case token.NEQ:
			op, want = token.EQL, true
		}
	}
	lhs, rhs := x.X, x.Y
	switch op {
	case token.GTR:
		op, lhs, rhs = token.LSS, rhs, lhs
	case token.GEQ:
		op, lhs, rhs = token.LEQ, rhs, lhs
	}
	a := e.evalExpr(fp, st, lhs, nil)
	b := e.evalExpr(fp, st, rhs, nil)
	switch op {
	case token.LSS: // lhs < rhs
		st = e.tightenExpr(fp, st, lhs, Val{Lo: NegInf, Hi: addSat(b.Hi, -1)})
		if st == nil {
			return nil
		}
		return e.tightenExpr(fp, st, rhs, Val{Lo: addSat(a.Lo, 1), Hi: PosInf})
	case token.LEQ: // lhs <= rhs
		st = e.tightenExpr(fp, st, lhs, Val{Lo: NegInf, Hi: b.Hi})
		if st == nil {
			return nil
		}
		return e.tightenExpr(fp, st, rhs, Val{Lo: a.Lo, Hi: PosInf})
	case token.EQL:
		st = e.tightenExpr(fp, st, lhs, b)
		if st == nil {
			return nil
		}
		return e.tightenExpr(fp, st, rhs, a)
	case token.NEQ:
		if k, ok := b.ConstVal(); ok {
			st = e.tightenExpr(fp, st, lhs, excludeConst(a, k))
		}
		if st == nil {
			return nil
		}
		if k, ok := a.ConstVal(); ok {
			st = e.tightenExpr(fp, st, rhs, excludeConst(b, k))
		}
		return st
	}
	return st
}

// excludeConst is the constraint "value != k" expressed as a Val to meet
// with: it trims a bound equal to k, and records the nonzero fact for k=0.
func excludeConst(v Val, k int64) Val {
	out := Val{Lo: NegInf, Hi: PosInf}
	if k == 0 {
		out.NZ = true
		return out
	}
	if v.Bot {
		return out
	}
	if v.Lo == k {
		out.Lo = k + 1
	}
	if v.Hi == k {
		out.Hi = k - 1
	}
	return out
}

// tightenExpr meets a constraint into the slot behind expr, when expr is a
// direct local/parameter reference; other shapes pass through unchanged.
func (e *engine) tightenExpr(fp *pdg.FuncPDG, st env, expr ast.Expr, con Val) env {
	for {
		p, ok := expr.(*ast.ParenExpr)
		if !ok {
			break
		}
		expr = p.X
	}
	id, ok := expr.(*ast.Ident)
	if !ok {
		return st
	}
	sym := e.info.Uses[id]
	if sym == nil || sym.Slot < 0 {
		return st
	}
	return e.tightenSlot(st, sym.Slot, con)
}

func (e *engine) tightenSlot(st env, slot int, con Val) env {
	m := Meet(st[slot], con)
	if m.Bot {
		return nil // contradiction: this branch side is infeasible
	}
	if m == st[slot] {
		return st
	}
	out := envClone(st)
	out[slot] = m
	return out
}

// ------------------------------------------------------------ record pass

// record walks one function's final states in node order, emitting
// findings, certificate facts, and counters.
func (e *engine) record(fp *pdg.FuncPDG, states []env) {
	g := fp.CFG
	for _, n := range g.Nodes {
		if n.Stmt == nil {
			continue
		}
		id := n.Stmt.ID()
		if states[n.ID] == nil {
			// Unreachable: operations here never execute, so they can
			// never trap — certify them (sound), and report the leader of
			// each dead region.
			if stmtHasOp(n.Stmt, true) {
				e.facts.DivSafe[id] = true
			}
			if stmtHasOp(n.Stmt, false) {
				e.facts.IdxSafe[id] = true
			}
			if deadLeader(g, states, n) {
				e.addFinding(Finding{
					Pass: "deadbranch", Code: "dead-code", Pos: n.Stmt.Pos(),
					Message: "unreachable code",
				})
			}
			continue
		}
		rec := &recorder{e: e, divAll: true, idxAll: true}
		e.transfer(fp, n, states[n.ID], rec)
		if rec.divSeen && rec.divAll {
			e.facts.DivSafe[id] = true
		}
		if rec.idxSeen && rec.idxAll {
			e.facts.IdxSafe[id] = true
		}
		if n.IsBranch {
			e.checkConstCond(fp, n, states[n.ID])
		}
		for _, v := range states[n.ID] {
			if v.Bounded() {
				e.facts.Intervals++
			}
			if v.Nonzero() {
				e.facts.NonzeroFacts++
			}
		}
	}
}

// stmtHasOp reports whether the statement's own expressions contain a
// division/modulo (div=true) or an indexed access (div=false). Nested
// statements have their own CFG nodes and are not descended into.
func stmtHasOp(s ast.Stmt, div bool) bool {
	found := false
	inspect := func(x ast.Expr) {
		if x == nil {
			return
		}
		ast.Inspect(x, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if div && (n.Op == token.QUO || n.Op == token.REM) {
					found = true
				}
			case *ast.IndexExpr:
				if !div {
					found = true
				}
			}
			return true
		})
	}
	switch s := s.(type) {
	case *ast.VarDeclStmt:
		inspect(s.Init)
	case *ast.AssignStmt:
		if s.Index != nil {
			if !div {
				found = true
			}
			inspect(s.Index)
		}
		inspect(s.RHS)
	case *ast.IfStmt:
		inspect(s.Cond)
	case *ast.WhileStmt:
		inspect(s.Cond)
	case *ast.ForStmt:
		inspect(s.Cond)
	case *ast.ReturnStmt:
		inspect(s.Result)
	case *ast.SendStmt:
		inspect(s.Value)
	case *ast.SpawnStmt:
		for _, a := range s.Call.Args {
			inspect(a)
		}
	case *ast.ExprStmt:
		inspect(s.X)
	case *ast.PrintStmt:
		for _, a := range s.Args {
			inspect(a)
		}
	}
	return found
}

// deadLeader marks the first node of a dead region: a dead node that is
// either entered from live code (a refined-away branch side) or has no
// predecessors at all (code after return/break). Interior dead nodes are
// suppressed so one region reports once.
func deadLeader(g *cfg.Graph, states []env, n *cfg.Node) bool {
	if len(n.Preds) == 0 {
		return true
	}
	for _, p := range n.Preds {
		if states[p] != nil {
			return true
		}
	}
	return false
}

// checkConstCond reports conditions that are provably constant — unless
// they are literal (while(true) is an idiom, not a bug).
func (e *engine) checkConstCond(fp *pdg.FuncPDG, n *cfg.Node, st env) {
	cond := condOf(n.Stmt)
	if cond == nil || literalCond(cond) {
		return
	}
	cv := e.evalExpr(fp, st, cond, nil)
	if cv.Bot {
		return
	}
	var truth string
	switch {
	case cv.Nonzero():
		truth = "true"
	case cv.IsZero():
		truth = "false"
	default:
		return
	}
	e.addFinding(Finding{
		Pass: "deadbranch", Code: "const-cond", Warn: true, Pos: cond.Pos(),
		Message: fmt.Sprintf("condition is always %s", truth),
	})
}

func literalCond(x ast.Expr) bool {
	for {
		p, ok := x.(*ast.ParenExpr)
		if !ok {
			break
		}
		x = p.X
	}
	switch x.(type) {
	case *ast.BoolLit, *ast.IntLit:
		return true
	}
	return false
}
