package progdb

import (
	"strings"
	"testing"

	"ppd/internal/ast"
	"ppd/internal/eblock"
	"ppd/internal/parser"
	"ppd/internal/pdg"
	"ppd/internal/sem"
	"ppd/internal/source"
)

func buildDB(t *testing.T, src string) *DB {
	t.Helper()
	errs := &source.ErrorList{}
	prog := parser.ParseString("test.mpl", src, errs)
	info := sem.Check(prog, errs)
	if errs.ErrCount() != 0 {
		t.Fatalf("front-end errors:\n%v", errs.Err())
	}
	p := pdg.Build(info)
	return Build(p, eblock.Build(p, eblock.Config{}))
}

const dbSrc = `
var g = 1;
shared sv;
func setg(v int) {
	g = v;
	sv = sv + v;
}
func getg() int { return g; }
func main() {
	setg(3);
	var x = getg();
	print(x);
}
`

func TestGlobalSites(t *testing.T) {
	db := buildDB(t, dbSrc)
	g := db.Global("g")
	if g == nil {
		t.Fatal("no entry for g")
	}
	if len(g.Defs) == 0 || len(g.Uses) == 0 {
		t.Fatalf("g sites: defs=%v uses=%v", g.Defs, g.Uses)
	}
	// g is defined in setg (statement "g=v") and used in getg.
	defTexts := map[string]bool{}
	for _, id := range g.Defs {
		defTexts[db.Stmt(id).Text] = true
	}
	if !defTexts["g=v"] {
		t.Errorf("g defs = %v", defTexts)
	}
	if db.Global("nosuch") != nil {
		t.Error("unknown global should be nil")
	}
}

func TestLocalSites(t *testing.T) {
	db := buildDB(t, dbSrc)
	x := db.Local("main", "x")
	if x == nil {
		t.Fatal("no entry for main/x")
	}
	if len(x.Defs) != 1 || len(x.Uses) != 1 {
		t.Errorf("x sites: defs=%v uses=%v", x.Defs, x.Uses)
	}
	if db.Local("setg", "x") != nil {
		t.Error("x is not in setg's scope")
	}
}

func TestStmtInfo(t *testing.T) {
	db := buildDB(t, dbSrc)
	// Find the call statement setg(3).
	var call *StmtInfo
	for _, si := range allStmts(db) {
		if si.Text == "setg(3)" {
			call = si
		}
	}
	if call == nil {
		t.Fatal("no setg(3) statement")
	}
	if call.Func != "main" || len(call.Calls) != 1 || call.Calls[0] != "setg" {
		t.Errorf("call info = %+v", call)
	}
	if call.Pos.Line == 0 {
		t.Error("missing line info")
	}
	if db.Stmt(ast.StmtID(9999)) != nil {
		t.Error("unknown stmt should be nil")
	}
}

func TestFuncUsedDefined(t *testing.T) {
	db := buildDB(t, dbSrc)
	used, defined := db.FuncUsedDefined("setg")
	joinU, joinD := strings.Join(used, ","), strings.Join(defined, ",")
	if !strings.Contains(joinD, "g") || !strings.Contains(joinD, "sv") {
		t.Errorf("setg defined = %v", defined)
	}
	if !strings.Contains(joinU, "sv") {
		t.Errorf("setg used = %v", used)
	}
	// main transitively defines g via setg.
	_, mainD := db.FuncUsedDefined("main")
	if !strings.Contains(strings.Join(mainD, ","), "g") {
		t.Errorf("main defined = %v", mainD)
	}
	u, d := db.FuncUsedDefined("nosuch")
	if u != nil || d != nil {
		t.Error("unknown func should return nils")
	}
}

func TestDefsOfShadowing(t *testing.T) {
	db := buildDB(t, `
var v = 1;
func f() {
	var v = 2;
	v = 3;
}
func main() { v = 4; f(); }
`)
	// From f's perspective, v is the local.
	fDefs := db.DefsOf("f", "v")
	for _, id := range fDefs {
		if db.Stmt(id).Func != "f" {
			t.Errorf("f's v defs include %s", db.Stmt(id).Func)
		}
	}
	// From main's perspective, v is the global.
	mDefs := db.DefsOf("main", "v")
	found := false
	for _, id := range mDefs {
		if db.Stmt(id).Text == "v=4" {
			found = true
		}
	}
	if !found {
		t.Errorf("main's v defs = %v", mDefs)
	}
	if db.DefsOf("main", "zzz") != nil {
		t.Error("unknown var should be nil")
	}
}

func TestBranchFlag(t *testing.T) {
	db := buildDB(t, `
func main() {
	var a = 1;
	if (a > 0) { a = 2; }
	while (a < 9) { a = a + 1; }
}`)
	branches, plain := 0, 0
	for _, si := range allStmts(db) {
		if si.IsBranch {
			branches++
		} else {
			plain++
		}
	}
	if branches != 2 {
		t.Errorf("branches = %d, want 2", branches)
	}
	if plain == 0 {
		t.Error("no plain statements recorded")
	}
}

func TestDump(t *testing.T) {
	db := buildDB(t, dbSrc)
	dump := db.Dump()
	for _, want := range []string{
		"=== program database ===",
		"globals:", "functions:", "statements:", "e-block plan",
		"setg", "sv", "USED=", "DEFINED=",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q", want)
		}
	}
}

// allStmts returns the record of every statement, in ID order.
func allStmts(db *DB) []*StmtInfo {
	var out []*StmtInfo
	for id := range db.Table.Stmts {
		if si := db.Stmt(ast.StmtID(id)); si != nil {
			out = append(out, si)
		}
	}
	return out
}
