package absint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"ppd/internal/ast"
	"ppd/internal/mplgen"
	"ppd/internal/parser"
	"ppd/internal/pdg"
	"ppd/internal/sem"
	"ppd/internal/source"
	"ppd/internal/workloads"
)

// analyzeOracle is Analyze without the memo: every interprocedural round
// analyzes every function again, and the recording pass analyzes each
// once more.
func analyzeOracle(p *pdg.Program) (*Facts, int) {
	e := newEngine(p)
	for _, fi := range p.Info.FuncList {
		e.ret[fi.Name()] = Bottom()
	}
	e.computeGlobals()

	const maxRounds = 24
	stable := false
	for round := 0; round < maxRounds && !stable; round++ {
		stable = true
		for _, fi := range p.Info.FuncList {
			fp := p.Funcs[fi.Name()]
			if fp == nil {
				continue
			}
			states := e.analyzeFunc(fp)
			nv := e.returnVal(fp, states)
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
	for _, fi := range p.Info.FuncList {
		fp := p.Funcs[fi.Name()]
		if fp == nil {
			continue
		}
		e.record(fp, e.analyzeFunc(fp))
	}
	e.locksets()
	return facts, e.analyses
}

func buildPDG(t *testing.T, name, src string) *pdg.Program {
	t.Helper()
	errs := &source.ErrorList{}
	prog := parser.ParseString(name, src, errs)
	info := sem.Check(prog, errs)
	if errs.ErrCount() != 0 {
		t.Fatalf("%s: front-end errors:\n%v", name, errs.Err())
	}
	return pdg.Build(info)
}

// exampleProgram matches the MPL program an example embeds.
var exampleProgram = regexp.MustCompile("(?s)const program = `(.*?)`")

// TestAnalyzeMemoMatchesOracle pins the memoized engine to the
// analyze-everything-every-round oracle: identical fact dumps on every
// shipped program and on 330 generated ones, with at most 1.3 function
// analyses per function on the generated part.
func TestAnalyzeMemoMatchesOracle(t *testing.T) {
	check := func(name, src string) (analyses, funcs int) {
		p := buildPDG(t, name, src)
		e := newEngine(p)
		got := e.run().Dump()
		want, oracleRuns := analyzeOracle(p)
		if got != want.Dump() {
			t.Fatalf("%s: memoized facts differ from the oracle:\n got:\n%s\nwant:\n%s", name, got, want.Dump())
		}
		if e.analyses > oracleRuns {
			t.Errorf("%s: memo ran %d analyses, oracle %d", name, e.analyses, oracleRuns)
		}
		return e.analyses, len(p.Info.FuncList)
	}

	for _, w := range workloads.Standard() {
		check(w.Name, w.Src)
	}
	var files []string
	for _, pat := range []string{"../../../testdata/*.mpl", "../../../examples/*/main.go"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	shipped := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		if filepath.Ext(path) == ".go" {
			m := exampleProgram.FindStringSubmatch(src)
			if m == nil {
				t.Fatalf("%s: no embedded program", path)
			}
			src = m[1]
		}
		check(path, src)
		shipped++
	}
	if shipped < 10 {
		t.Errorf("only %d testdata and example programs found", shipped)
	}

	analyses, funcs := 0, 0
	for _, c := range []struct {
		name string
		cfg  mplgen.Config
	}{{"default", mplgen.DefaultConfig()}, {"parallel", mplgen.ParallelConfig()}, {"racy", mplgen.RacyConfig()}} {
		for seed := int64(0); seed < 110; seed++ {
			a, f := check(fmt.Sprintf("mplgen-%s-%d", c.name, seed), mplgen.Generate(seed, c.cfg))
			analyses += a
			funcs += f
		}
	}
	ratio := float64(analyses) / float64(funcs)
	t.Logf("mplgen: %d analyses for %d functions (%.3f per function)", analyses, funcs, ratio)
	if ratio > 1.3 {
		t.Errorf("memoized engine ran %.3f analyses per function, want <= 1.3", ratio)
	}
}
