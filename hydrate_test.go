package ppd

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"ppd/internal/controller"
	"ppd/internal/eblock"
)

// answers runs every debugging-phase question on prog and renders the
// answers: the logged run, the controller's races, graphs, flowback
// fragments, restores and reports, a what-if replay, a reloaded log, a
// debugger session, and a breakpoint run. hydrated is checked after each
// step; it must stay false on a cache-loaded program.
func answers(t *testing.T, name string, prog *Program, hydrated func(step string)) string {
	t.Helper()
	var sb strings.Builder
	exec, err := prog.RunLogged(Options{Seed: 3})
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	hydrated("run")
	ctl := exec.Controller()
	hydrated("Controller")
	fmt.Fprintf(&sb, "races %d\n%s", len(exec.Races()), exec.RaceReport())
	hydrated("Races")
	for pid := 0; pid < ctl.NumProcs(); pid++ {
		g, idx, err := ctl.CurrentGraph(pid)
		if err != nil {
			fmt.Fprintf(&sb, "P%d: %v\n", pid, err)
			continue
		}
		again, err := ctl.Graph(pid, idx)
		if err != nil || again != g {
			t.Errorf("%s P%d: Graph(%d) = %p, %v; want the cached graph", name, pid, idx, again, err)
		}
		fmt.Fprintf(&sb, "P%d interval %d\n%s", pid, idx, g.String())
		if n := ctl.FocusNode(g, pid); n != nil {
			sb.WriteString(controller.RenderFragment(g, n.ID, 4))
		}
		if book := exec.Log().Books[pid]; book.Len() > 0 {
			snap, err := ctl.ReplayTo(pid, book.Len()/2)
			if err != nil {
				t.Fatalf("%s P%d: ReplayTo: %v", name, pid, err)
			}
			fmt.Fprintf(&sb, "restore %d: %v\n", snap.UpTo, snap.Globals)
		}
	}
	hydrated("flowback and ReplayTo")
	sb.WriteString(ctl.Summary())
	sb.WriteString(ctl.DeadlockReport())
	hydrated("Summary and DeadlockReport")

	if idx, err := ctl.FocusInterval(0); err == nil && len(prog.art.Prog.Globals) > 0 {
		global := prog.art.Prog.Globals[0].Name
		res, err := exec.WhatIf(0, idx, global, 7)
		if err != nil {
			fmt.Fprintf(&sb, "whatif: %v\n", err)
		} else {
			fmt.Fprintf(&sb, "whatif %s: changed %v, %v\n", global, res.ChangedGlobals, res.Modified.Globals)
		}
	}
	if _, err := exec.WhatIf(0, 0, "no_such_global", 1); err == nil {
		t.Errorf("%s: WhatIf accepted an unknown global", name)
	}
	hydrated("WhatIf")

	var log bytes.Buffer
	if err := exec.WriteLog(&log); err != nil {
		t.Fatal(err)
	}
	loaded, err := prog.ReadLog(&log, Options{})
	if err != nil {
		t.Fatalf("%s: ReadLog: %v", name, err)
	}
	sb.WriteString(loaded.RaceReport())
	if g, _, err := loaded.Controller().CurrentGraph(0); err == nil {
		sb.WriteString(g.String())
	}
	hydrated("ReadLog")

	dbg, err := exec.Debugger()
	if err != nil {
		t.Fatalf("%s: debugger: %v", name, err)
	}
	for _, cmd := range []string{"where", "summary", "node 1", "graph 3"} {
		dbg.Exec(&sb, cmd)
	}
	hydrated("debugger")

	breakAt := len(prog.art.Stmts.Stmts) / 2
	bexec, err := prog.RunLogged(Options{Seed: 3, BreakAt: breakAt})
	if err != nil {
		t.Fatalf("%s: BreakAt run: %v", name, err)
	}
	fmt.Fprintf(&sb, "break s%d: %t\n%s", breakAt, bexec.AtBreakpoint(), bexec.Controller().Summary())
	if _, err := prog.RunLogged(Options{BreakAt: len(prog.art.Stmts.Stmts)}); err == nil {
		t.Errorf("%s: BreakAt past the last statement was accepted", name)
	}
	hydrated("BreakAt")
	return sb.String()
}

// TestQuestionsNeverHydrate pins the statement table's contract: a
// program loaded from the artifact cache answers every debugging-phase
// question without rebuilding its semantic layers, and every answer equals
// the one a fresh compile gives.
func TestQuestionsNeverHydrate(t *testing.T) {
	t.Setenv("PPD_CACHE_DIR", "")
	dir := t.TempDir()
	for name, src := range cacheTestSources(t) {
		fresh, err := Compile(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := answers(t, name, fresh, func(string) {})

		if _, err := CompileOpts(name, src, eblock.DefaultConfig(), Options{CacheDir: dir}); err != nil {
			t.Fatalf("%s: cold: %v", name, err)
		}
		warm, err := CompileOpts(name, src, eblock.DefaultConfig(), Options{CacheDir: dir})
		if err != nil {
			t.Fatalf("%s: warm: %v", name, err)
		}
		if warm.CompileStats().Counter("compile.cache.hits") != 1 {
			t.Fatalf("%s: warm compile missed the cache", name)
		}
		got := answers(t, name, warm, func(step string) {
			if warm.Artifacts().Hydrated() {
				t.Fatalf("%s: %s hydrated the cache-loaded program", name, step)
			}
		})
		if got != want {
			t.Errorf("%s: answers on the cache-loaded program differ:\n got:\n%s\nwant:\n%s", name, got, want)
		}

		// The session surface: a monitored re-run and its online verdict.
		sess, err := OpenSession(name, src, Options{Seed: 3, CacheDir: dir})
		if err != nil {
			t.Fatalf("%s: session: %v", name, err)
		}
		res, err := sess.StreamRaces(context.Background(), Options{Seed: 5}, nil)
		if err != nil {
			t.Fatalf("%s: StreamRaces: %v", name, err)
		}
		frag, ferr := sess.Flowback(0, 3)
		if sess.Program().Artifacts().Hydrated() {
			t.Errorf("%s: StreamRaces or Flowback hydrated the session's program", name)
		}
		freshExec, err := fresh.RunLogged(Options{Seed: 5, Monitor: true})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sess.Execution().OnlineRaceReport(), freshExec.OnlineRaceReport(); got != want || len(res.Races) != len(freshExec.OnlineRaces()) {
			t.Errorf("%s: streamed races differ:\n got: %s\nwant: %s", name, got, want)
		}
		g, _, err := freshExec.Controller().CurrentGraph(0)
		if err == nil && ferr == nil {
			if want := controller.RenderFragment(g, freshExec.Controller().FocusNode(g, 0).ID, 3); frag != want {
				t.Errorf("%s: session flowback differs:\n got: %s\nwant: %s", name, frag, want)
			}
		}
		sess.Close()
	}
}
