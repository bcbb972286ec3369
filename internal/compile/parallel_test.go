package compile

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ppd/internal/ast"
	"ppd/internal/eblock"
	"ppd/internal/obs"
	"ppd/internal/progdb"
	"ppd/internal/source"
	"ppd/internal/workloads"
)

// identitySources gathers every MPL program the repo ships: the benchmark
// workloads (including the wide Sharded program, one function per worker)
// and the testdata corpus.
func identitySources(t testing.TB) map[string]string {
	t.Helper()
	srcs := make(map[string]string)
	for _, w := range workloads.Standard() {
		srcs[w.Name+".mpl"] = w.Src
	}
	w := workloads.Sharded(8, 4)
	srcs[w.Name+".mpl"] = w.Src
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mpl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(data)
	}
	return srcs
}

// progBytes serializes an artifact's bytecode through the cache codec —
// the strictest equality available: every instruction, operand, string
// table index, and block metadata field participates.
func progBytes(t testing.TB, name, src string, cfg eblock.Config, art *Artifacts) []byte {
	t.Helper()
	return progdb.Encode(&progdb.CachedProgram{
		SourceName: name, Source: src, Config: cfg, Prog: art.Prog,
	})
}

// TestParallelByteIdentical pins the tentpole invariant: the parallel
// pipeline — at any fan-out width — produces bytecode byte-identical to
// the sequential pipeline, and identical vet output too.
func TestParallelByteIdentical(t *testing.T) {
	cfg := eblock.DefaultConfig()
	for name, src := range identitySources(t) {
		file := source.NewFile(name, src)
		seq, err := CompileSequential(file, cfg)
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		want := progBytes(t, name, src, cfg, seq)
		wantVet := seq.Vet(nil).Text()
		for _, workers := range []int{0, 2, 4, 8} {
			par, err := CompileWorkers(source.NewFile(name, src), cfg, workers, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			got := progBytes(t, name, src, cfg, par)
			if !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: bytecode differs from sequential (%d vs %d bytes)",
					name, workers, len(got), len(want))
			}
			if gotVet := par.Vet(nil).Text(); gotVet != wantVet {
				t.Errorf("%s workers=%d: vet differs:\n got: %s\nwant: %s",
					name, workers, gotVet, wantVet)
			}
		}
	}
}

// TestCompileCachedColdWarm checks the persistent cache end to end inside
// the compile layer: a cold compile stores, a warm compile hits, and both
// hand back byte-identical bytecode and vet output — warm even before and
// after hydration.
func TestCompileCachedColdWarm(t *testing.T) {
	dir := t.TempDir()
	cfg := eblock.DefaultConfig()
	for name, src := range identitySources(t) {
		coldSink := obs.New()
		cold, err := CompileCached(source.NewFile(name, src), cfg, dir, 0, coldSink)
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		if got := coldSink.Snapshot().Counters["compile.cache.misses"]; got != 1 {
			t.Errorf("%s cold: misses = %d, want 1", name, got)
		}
		warmSink := obs.New()
		warm, err := CompileCached(source.NewFile(name, src), cfg, dir, 0, warmSink)
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		snap := warmSink.Snapshot()
		if got := snap.Counters["compile.cache.hits"]; got != 1 {
			t.Errorf("%s warm: hits = %d, want 1", name, got)
		}
		if got := snap.Counters["compile.cache.bytes"]; got <= 0 {
			t.Errorf("%s warm: bytes = %d, want > 0", name, got)
		}
		if warm.Hydrated() {
			t.Errorf("%s warm: artifact should start shallow", name)
		}
		if !bytes.Equal(progBytes(t, name, src, cfg, warm), progBytes(t, name, src, cfg, cold)) {
			t.Errorf("%s: warm bytecode differs from cold", name)
		}
		if got, want := warm.Vet(nil).Text(), cold.Vet(nil).Text(); got != want {
			t.Errorf("%s: warm vet differs:\n got: %s\nwant: %s", name, got, want)
		}
		if err := warm.Hydrate(); err != nil {
			t.Fatalf("%s: hydrate: %v", name, err)
		}
		if warm.DB == nil || warm.PDG == nil || warm.Info == nil || warm.Plan == nil {
			t.Fatalf("%s: hydrate left semantic layers nil", name)
		}
		// The hydrated database must serve the persisted vet result, not
		// recompute one.
		if warm.DB.Vet() == nil {
			t.Errorf("%s: hydrated DB has no vet result seeded", name)
		}
		if got, want := warm.Vet(nil).Text(), cold.Vet(nil).Text(); got != want {
			t.Errorf("%s: post-hydrate vet differs", name)
		}
	}
}

// TestCachedStmtTableMatchesFresh pins the persisted statement table to
// the one a fresh compile builds: equal rows on the cache-loaded artifact,
// and, once hydrated, a database whose Stmt answers (function, line, text)
// equal the fresh database's on every statement ID.
func TestCachedStmtTableMatchesFresh(t *testing.T) {
	dir := t.TempDir()
	cfg := eblock.DefaultConfig()
	for name, src := range identitySources(t) {
		fresh, err := CompileSequential(source.NewFile(name, src), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var warm *Artifacts
		for range 2 {
			if warm, err = CompileCached(source.NewFile(name, src), cfg, dir, 0, nil); err != nil {
				t.Fatalf("%s: cached compile: %v", name, err)
			}
		}
		if warm.Hydrated() {
			t.Fatalf("%s: warm artifact should start shallow", name)
		}
		if !reflect.DeepEqual(warm.Stmts, fresh.Stmts) {
			t.Errorf("%s: persisted statement table differs from the fresh one", name)
		}
		if err := warm.Hydrate(); err != nil {
			t.Fatalf("%s: hydrate: %v", name, err)
		}
		if warm.DB.Table != warm.Stmts {
			t.Errorf("%s: hydrated database does not read the persisted table", name)
		}
		n := fresh.Info.Prog.NumStmts
		if len(fresh.Stmts.Stmts) != n+1 {
			t.Fatalf("%s: table has %d rows for %d statements", name, len(fresh.Stmts.Stmts), n)
		}
		for id := ast.StmtID(0); id <= ast.StmtID(n+1); id++ {
			f, w := fresh.DB.Stmt(id), warm.DB.Stmt(id)
			if (f == nil) != (id == ast.NoStmt || int(id) > n || fresh.Info.Prog.StmtByID(id) == nil) {
				t.Errorf("%s: fresh DB.Stmt(s%d) presence disagrees with the AST", name, id)
			}
			switch {
			case (f == nil) != (w == nil):
				t.Errorf("%s s%d: fresh %v, cached %v", name, id, f, w)
			case f != nil && (f.Func != w.Func || f.Pos.Line != w.Pos.Line || f.Text != w.Text):
				t.Errorf("%s s%d: cached %s line %d %q, fresh %s line %d %q",
					name, id, w.Func, w.Pos.Line, w.Text, f.Func, f.Pos.Line, f.Text)
			}
		}
	}
}
