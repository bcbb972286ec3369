package progdb

import (
	"fmt"

	"ppd/internal/ast"
	"ppd/internal/pdg"
	"ppd/internal/sem"
)

// StmtTable is the slice of the program database the debugging phase
// reads: per statement its function, position, one-line text and the
// static facts flowback needs, and per function its slot names. The
// preparatory phase builds it once from the AST and the PDG; the artifact
// cache persists it, so a cache-loaded program answers every debugging
// question from the table without rebuilding the front end's layers.
type StmtTable struct {
	// Stmts is indexed by ast.StmtID. Row 0 (NoStmt) and any ID no
	// statement has are absent rows (Func -1).
	Stmts []StmtRow
	// Funcs is indexed by function index, the bytecode program's order.
	Funcs []FuncRow
}

// StmtRow is one statement's entry.
type StmtRow struct {
	Func      int // index into StmtTable.Funcs; -1 for an absent row
	Line, Col int
	Text      string // ast.StmtString: the one-line rendering
	Sync      bool   // P, V, send or spawn: a pure synchronization statement
	Branch    bool   // if, while or for

	// Ctrl lists the statements of the static controlling predicates: the
	// control dependences of the statement's node in its function's PDG.
	Ctrl []ast.StmtID

	// Calls holds one entry per function the statement calls, for the
	// first such call in preorder (nested statements excluded).
	Calls []CallSite
}

// CallSite records, for one call, the variables each argument reads.
type CallSite struct {
	Callee int     // function index
	Args   [][]int // per argument, the function-space indices of the variables it reads
}

// FuncRow is one function's entry.
type FuncRow struct {
	Name   string
	Locals []string // slot names, in slot order
}

// Stmt returns the row of statement id, or nil when no statement has it.
func (t *StmtTable) Stmt(id ast.StmtID) *StmtRow {
	if id <= ast.NoStmt || int(id) >= len(t.Stmts) || t.Stmts[id].Func < 0 {
		return nil
	}
	return &t.Stmts[id]
}

// Where renders statement id as "fn line N: text" for reports, or false
// when no statement has it.
func (t *StmtTable) Where(id ast.StmtID) (string, bool) {
	r := t.Stmt(id)
	if r == nil {
		return "", false
	}
	return fmt.Sprintf("%s line %d: %s", t.Funcs[r.Func].Name, r.Line, r.Text), true
}

// ArgVars returns, per argument, the variables read by statement id's
// first call of callee; nil when the statement makes no such call.
func (t *StmtTable) ArgVars(id ast.StmtID, callee int) [][]int {
	if r := t.Stmt(id); r != nil {
		for i := range r.Calls {
			if r.Calls[i].Callee == callee {
				return r.Calls[i].Args
			}
		}
	}
	return nil
}

// newTable allocates the table of the checked program with every statement
// row absent and the function rows filled in.
func newTable(info *sem.Info) *StmtTable {
	t := &StmtTable{
		Stmts: make([]StmtRow, info.Prog.NumStmts+1),
		Funcs: make([]FuncRow, len(info.FuncList)),
	}
	for i := range t.Stmts {
		t.Stmts[i].Func = -1
	}
	for i, fn := range info.FuncList {
		t.Funcs[i].Name = fn.Name()
		if len(fn.Locals) > 0 {
			t.Funcs[i].Locals = make([]string, len(fn.Locals))
			for j, l := range fn.Locals {
				t.Funcs[i].Locals[j] = l.Name
			}
		}
	}
	return t
}

// stmtRow derives statement s's row; fn is its function's index and
// funcIdx maps every function name to its index.
func stmtRow(p *pdg.Program, f *pdg.FuncPDG, fn int, funcIdx map[string]int, s ast.Stmt) StmtRow {
	pos := p.Info.Prog.File.Position(s.Pos())
	r := StmtRow{Func: fn, Line: pos.Line, Col: pos.Column, Text: ast.StmtString(s)}
	switch s.(type) {
	case *ast.SemStmt, *ast.SendStmt, *ast.SpawnStmt:
		r.Sync = true
	case *ast.IfStmt, *ast.WhileStmt, *ast.ForStmt:
		r.Branch = true
	}
	if node := f.CFG.NodeFor(s.ID()); node >= 0 {
		for _, dep := range f.CtrlDepsOf(node) {
			if st := f.CFG.Nodes[dep].Stmt; st != nil {
				r.Ctrl = append(r.Ctrl, st.ID())
			}
		}
	}
	// Nested statements are separate trace events: stop at blocks.
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			return false
		case *ast.CallExpr:
			idx, ok := funcIdx[n.Fun.Name]
			if !ok {
				return true
			}
			for _, c := range r.Calls {
				if c.Callee == idx {
					return true
				}
			}
			r.Calls = append(r.Calls, CallSite{Callee: idx, Args: argVars(p.Info, f, n)})
		}
		return true
	})
	return r
}

// argVars lists, per argument of call, the function-space indices of the
// variables the argument expression names.
func argVars(info *sem.Info, f *pdg.FuncPDG, call *ast.CallExpr) [][]int {
	var out [][]int
	for _, arg := range call.Args {
		var vars []int
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if sym := info.Uses[id]; sym != nil {
					if idx := f.Space.Index(sym); idx >= 0 {
						vars = append(vars, idx)
					}
				}
			}
			return true
		})
		out = append(out, vars)
	}
	return out
}
