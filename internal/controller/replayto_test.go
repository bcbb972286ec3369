package controller

import (
	"fmt"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/obs"
	"ppd/internal/replay"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// replayToFixture builds a controller over a prodcons run. ckEvery > 0
// overrides the checkpoint spacing so short logs cross many boundaries.
func replayToFixture(t *testing.T, ckEvery int, cfg Config) (*Controller, *compile.Artifacts, *vm.VM) {
	t.Helper()
	wl := workloads.ProdCons(60)
	art, err := compile.CompileSource(wl.Name, wl.Src, eblock.DefaultConfig())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: 1, Quantum: 7})
	_ = v.Run()
	cfg.Failure = v.Failure
	cfg.Deadlock = v.Deadlock
	c := NewWithConfig(art, v.Log, cfg)
	if ckEvery > 0 {
		c.ckEvery = ckEvery
	}
	return c, art, v
}

func diffSnapshots(t *testing.T, ctx string, got, want *replay.Snapshot) {
	t.Helper()
	if got.UpTo != want.UpTo {
		t.Errorf("%s: UpTo = %d, want %d", ctx, got.UpTo, want.UpTo)
	}
	if g, w := fmt.Sprintf("%v", got.Globals), fmt.Sprintf("%v", want.Globals); g != w {
		t.Errorf("%s: globals diverge\ngot:  %s\nwant: %s", ctx, g, w)
	}
}

// TestReplayToMatchesRestoreAt sweeps every record boundary of every
// process, ascending, with a tiny checkpoint spacing: the checkpointed
// restore must equal the from-scratch fold at each one.
func TestReplayToMatchesRestoreAt(t *testing.T) {
	c, art, v := replayToFixture(t, 3, Config{})
	for pid, book := range v.Log.Books {
		for idx := 0; idx <= len(book.Records); idx++ {
			got, err := c.ReplayTo(pid, idx)
			if err != nil {
				t.Fatalf("pid %d idx %d: %v", pid, idx, err)
			}
			diffSnapshots(t, fmt.Sprintf("pid %d idx %d", pid, idx),
				got, replay.RestoreAt(art.Prog, book, idx))
		}
	}
}

// TestReplayToOutOfOrder queries boundaries in descending and scattered
// order on a fresh controller, so restores hit cold, partially warm, and
// fully warm checkpoint states.
func TestReplayToOutOfOrder(t *testing.T) {
	c, art, v := replayToFixture(t, 4, Config{})
	for pid, book := range v.Log.Books {
		n := len(book.Records)
		order := []int{n, n / 2, n - 1, 1, n / 3, n / 2, 0, n}
		for _, idx := range order {
			if idx < 0 {
				continue
			}
			got, err := c.ReplayTo(pid, idx)
			if err != nil {
				t.Fatalf("pid %d idx %d: %v", pid, idx, err)
			}
			diffSnapshots(t, fmt.Sprintf("pid %d idx %d", pid, idx),
				got, replay.RestoreAt(art.Prog, book, idx))
		}
	}
}

// TestReplayToEdges pins clamping and bad pids at the default spacing.
func TestReplayToEdges(t *testing.T) {
	c, art, v := replayToFixture(t, 0, Config{})
	book := v.Log.Books[0]
	got, err := c.ReplayTo(0, len(book.Records)+5) // clamped
	if err != nil {
		t.Fatal(err)
	}
	diffSnapshots(t, "clamped", got, replay.RestoreAt(art.Prog, book, len(book.Records)))
	got, err = c.ReplayTo(0, -3) // clamped to 0
	if err != nil {
		t.Fatal(err)
	}
	diffSnapshots(t, "negative", got, replay.RestoreAt(art.Prog, book, 0))
	if _, err := c.ReplayTo(99, 0); err == nil {
		t.Error("bad pid accepted")
	}
}

// TestReplayToCounters proves checkpoints are actually stored and hit, and
// that the emulation pool's counters reach the controller's sink.
func TestReplayToCounters(t *testing.T) {
	sink := obs.New()
	c, _, v := replayToFixture(t, 4, Config{Obs: sink})
	book := v.Log.Books[0]
	n := len(book.Records)
	for idx := 0; idx <= n; idx++ {
		if _, err := c.ReplayTo(0, idx); err != nil {
			t.Fatal(err)
		}
	}
	if got := sink.Counter("debug.emu.ckpt.stores").Value(); got != int64(n/4) {
		t.Errorf("ckpt stores = %d, want %d", got, n/4)
	}
	if got := sink.Counter("debug.emu.ckpt.hits").Value(); got == 0 {
		t.Error("no checkpoint hits in an ascending sweep")
	}

	// An interval query routes through the shared pool: dispatch counters
	// must land in the same sink.
	if idx, err := c.FocusInterval(0); err == nil {
		if _, err := c.Graph(0, idx); err != nil {
			t.Fatal(err)
		}
	}
	if got := sink.Counter("debug.emu.dispatch.fast").Value(); got == 0 {
		t.Error("no fast dispatches recorded through the controller's pool")
	}
}
