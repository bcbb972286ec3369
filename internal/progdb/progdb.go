// Package progdb implements the paper's program database (§3.2.1, §4.1):
// "information on the program text such as the places where an identifier
// is defined or used", plus "the information obtained by semantic analyses
// of the program, such as the set of variables that may be used or modified
// when invoking a subroutine". The PPD Controller consults it during the
// debugging phase to direct the emulation package and label graph nodes.
package progdb

import (
	"fmt"
	"strings"
	"sync"

	"ppd/internal/analysis"
	"ppd/internal/ast"
	"ppd/internal/eblock"
	"ppd/internal/pdg"
	"ppd/internal/sched"
	"ppd/internal/sem"
	"ppd/internal/source"
)

// VarSites records where one variable is defined and used (by StmtID).
type VarSites struct {
	Symbol *sem.Symbol
	Scope  string // "" for globals, else the function name
	Defs   []ast.StmtID
	Uses   []ast.StmtID
}

// StmtInfo is the database's per-statement record, read from the
// statement table plus the calls the statement makes.
type StmtInfo struct {
	ID       ast.StmtID
	Func     string
	Pos      source.Position // file, line and column
	Text     string          // one-line rendering
	IsBranch bool
	Calls    []string
}

// DB is the program database.
type DB struct {
	Prog *ast.Program
	Info *sem.Info
	PDG  *pdg.Program
	Plan *eblock.Plan

	// Table is the per-statement index: the one Stmt reads and the one the
	// artifact cache persists for the debugging phase.
	Table *StmtTable

	// vars is keyed by "scope\x00name" (scope empty for globals).
	vars map[string]*VarSites

	// vet caches the static-analysis result: the paper's program database
	// stores "the information obtained by semantic analyses of the
	// program", and the vet diagnostics (with their conflict matrix) are
	// exactly that for the analysis passes. Computed once on demand.
	vetMu sync.Mutex
	vet   *analysis.Result
}

// EnsureVet returns the cached static-analysis result, computing it with
// compute on first use. Safe for concurrent callers; compute runs at most
// once per database.
func (db *DB) EnsureVet(compute func() *analysis.Result) *analysis.Result {
	db.vetMu.Lock()
	defer db.vetMu.Unlock()
	if db.vet == nil {
		db.vet = compute()
	}
	return db.vet
}

// Vet returns the persisted static-analysis result, or nil if no analysis
// has run against this database yet.
func (db *DB) Vet() *analysis.Result {
	db.vetMu.Lock()
	defer db.vetMu.Unlock()
	return db.vet
}

// Build assembles the database from the earlier analyses.
func Build(p *pdg.Program, plan *eblock.Plan) *DB {
	return BuildWith(p, plan, nil)
}

// BuildWith is Build with the per-function statement/variable indexing
// fanned out across pool (nil pool runs sequentially). Each function's
// index is collected into a private partial; partials merge in FuncList
// order, reproducing the sequential database exactly — per-variable
// def/use site lists keep their sequential append order.
func BuildWith(p *pdg.Program, plan *eblock.Plan, pool *sched.Pool) *DB {
	db := &DB{
		Prog:  p.Info.Prog,
		Info:  p.Info,
		PDG:   p,
		Plan:  plan,
		Table: newTable(p.Info),
		vars:  make(map[string]*VarSites),
	}
	for _, g := range p.Info.Globals {
		db.vars[key("", g.Name)] = &VarSites{Symbol: g}
	}
	for _, fn := range p.Info.FuncList {
		for _, l := range fn.Locals {
			db.vars[key(fn.Name(), l.Name)] = &VarSites{Symbol: l, Scope: fn.Name()}
		}
	}
	n := len(p.Info.FuncList)
	funcIdx := make(map[string]int, n)
	for i, fn := range p.Info.FuncList {
		funcIdx[fn.Name()] = i
	}
	var parts []*funcIndex
	if pool == nil {
		parts = make([]*funcIndex, n)
		for i := range p.Info.FuncList {
			parts[i] = db.collectFunc(i, funcIdx)
		}
	} else {
		parts = sched.Map(pool, n, func(i int) *funcIndex {
			return db.collectFunc(i, funcIdx)
		})
	}
	for _, part := range parts {
		db.mergeFunc(part)
	}
	return db
}

func key(scope, name string) string { return scope + "\x00" + name }

// funcIndex is one function's variable sites, collected without touching
// the shared maps so collection can run concurrently.
type funcIndex struct {
	sites []siteContrib
}

// siteContrib is one def or use site of a variable, in the order the
// sequential indexer would have appended it.
type siteContrib struct {
	sym   *sem.Symbol
	scope string // "" for globals
	def   bool
	id    ast.StmtID
}

// collectFunc fills function fi's statement rows and gathers its variable
// sites. It only reads shared state (AST, PDG, spaces) and writes only the
// table rows of its own statements; the sites go into the returned
// partial.
func (db *DB) collectFunc(fi int, funcIdx map[string]int) *funcIndex {
	fn := db.Info.FuncList[fi]
	f := db.PDG.Funcs[fn.Name()]
	space := f.Space
	part := &funcIndex{}
	for _, s := range ast.Stmts(fn.Decl.Body) {
		id := s.ID()
		db.Table.Stmts[id] = stmtRow(db.PDG, f, fi, funcIdx, s)
		if ud, ok := db.PDG.Inter.UseDefs[fn.Name()][id]; ok {
			contrib := func(v int, def bool) {
				sc := siteContrib{sym: space.Symbol(v), def: def, id: id}
				if !space.IsGlobal(v) {
					sc.scope = fn.Name()
				}
				part.sites = append(part.sites, sc)
			}
			ud.Def.ForEach(func(v int) { contrib(v, true) })
			ud.Use.ForEach(func(v int) { contrib(v, false) })
		}
	}
	return part
}

// mergeFunc folds one partial into the shared maps. Callers invoke it in
// FuncList order, which makes the merged database identical to the one the
// sequential indexer builds.
func (db *DB) mergeFunc(part *funcIndex) {
	for _, sc := range part.sites {
		k := key(sc.scope, sc.sym.Name)
		vs, ok := db.vars[k]
		if !ok {
			vs = &VarSites{Symbol: sc.sym, Scope: sc.scope}
			db.vars[k] = vs
		}
		if sc.def {
			vs.Defs = append(vs.Defs, sc.id)
		} else {
			vs.Uses = append(vs.Uses, sc.id)
		}
	}
}

// Global returns def/use sites of a global variable, or nil.
func (db *DB) Global(name string) *VarSites { return db.vars[key("", name)] }

// Local returns def/use sites of a function-scoped variable, or nil.
func (db *DB) Local(fn, name string) *VarSites { return db.vars[key(fn, name)] }

// Stmt returns the record for a statement ID, or nil.
func (db *DB) Stmt(id ast.StmtID) *StmtInfo {
	r := db.Table.Stmt(id)
	if r == nil {
		return nil
	}
	fn := db.Table.Funcs[r.Func].Name
	si := &StmtInfo{
		ID:       id,
		Func:     fn,
		Pos:      source.Position{Filename: db.Prog.File.Name, Line: r.Line, Column: r.Col},
		Text:     r.Text,
		IsBranch: r.Branch,
	}
	if ud, ok := db.PDG.Inter.UseDefs[fn][id]; ok {
		si.Calls = ud.Calls
	}
	return si
}

// FuncUsedDefined reports the interprocedural USED/DEFINED global names of
// a function — the paper's canonical program-database query.
func (db *DB) FuncUsedDefined(fn string) (used, defined []string) {
	s, ok := db.PDG.Inter.Summaries[fn]
	if !ok {
		return nil, nil
	}
	for _, id := range s.Used.Elems() {
		used = append(used, db.Info.Globals[id].Name)
	}
	for _, id := range s.Defined.Elems() {
		defined = append(defined, db.Info.Globals[id].Name)
	}
	return used, defined
}

// DefsOf returns the statements that may define the named variable as seen
// from function fn (locals shadow globals).
func (db *DB) DefsOf(fn, name string) []ast.StmtID {
	if vs := db.Local(fn, name); vs != nil {
		return vs.Defs
	}
	if vs := db.Global(name); vs != nil {
		return vs.Defs
	}
	return nil
}

// Dump renders the whole database; `ppd dump` exposes it.
func (db *DB) Dump() string {
	var b strings.Builder
	b.WriteString("=== program database ===\n")

	b.WriteString("globals:\n")
	for _, g := range db.Info.Globals {
		vs := db.Global(g.Name)
		fmt.Fprintf(&b, "  %-12s %-6s defs=%v uses=%v\n", g.Name, g.Kind, vs.Defs, vs.Uses)
	}

	b.WriteString("functions:\n")
	for _, fn := range db.Info.FuncList {
		used, defined := db.FuncUsedDefined(fn.Name())
		fmt.Fprintf(&b, "  %-12s USED=%v DEFINED=%v\n", fn.Name(), used, defined)
	}

	b.WriteString("statements:\n")
	for id, r := range db.Table.Stmts {
		if r.Func >= 0 {
			fmt.Fprintf(&b, "  s%-4d %-10s %4d: %s\n", id, db.Table.Funcs[r.Func].Name, r.Line, r.Text)
		}
	}

	b.WriteString(db.Plan.String())
	return b.String()
}
