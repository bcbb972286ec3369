package stream_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"ppd/internal/bitset"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/parallel"
	"ppd/internal/race"
	"ppd/internal/stream"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// capturedRun is one logged execution observed two ways at once: the tap
// copies the sync-relevant records in generation order (exactly what the
// production tee sees), and the retained log is the input to the batch
// oracle. Both views come from the same run, so any divergence between
// the online pipeline and the batch detector is the pipeline's fault, not
// schedule noise.
type capturedRun struct {
	recs  []parallel.FeedRecord
	v     *vm.VM
	art   *compile.Artifacts
	mask  *bitset.Set
	names []string
}

func captureRun(tb testing.TB, name, src string, seed int64, quantum int) *capturedRun {
	tb.Helper()
	art, err := compile.CompileSource(name, src, eblock.DefaultConfig())
	if err != nil {
		tb.Fatalf("compile %s: %v", name, err)
	}
	cr := &capturedRun{art: art}
	v := vm.New(art.Prog, vm.Options{
		Mode: vm.ModeLog, Seed: seed, Quantum: quantum, Output: io.Discard,
		Tap: func(pid, idx int, r *logging.Record) {
			switch r.Kind {
			case logging.RecSync, logging.RecStart, logging.RecExit:
			default:
				return
			}
			cr.recs = append(cr.recs, parallel.FeedRecord{
				PID:     pid,
				RecIdx:  idx,
				Kind:    r.Kind,
				Op:      r.Op,
				Obj:     r.Obj,
				Stmt:    r.Stmt,
				Gsn:     r.Gsn,
				FromGsn: r.FromGsn,
				Reads:   append([]int(nil), r.Reads...),
				Writes:  append([]int(nil), r.Writes...),
			})
		},
	})
	if err := v.Run(); err != nil {
		tb.Fatalf("run %s: %v", name, err)
	}
	cr.v = v
	cr.names = make([]string, len(art.Prog.Globals))
	for i, g := range art.Prog.Globals {
		cr.names[i] = g.Name
	}
	cr.mask = art.Vet(nil).Conflicts.Mask()
	return cr
}

func (cr *capturedRun) oracleGraph() *parallel.Graph {
	g := parallel.Build(cr.v.Log, len(cr.art.Prog.Globals))
	g.VarNames = cr.names
	return g
}

// onlineResult replays the captured record stream through a fresh
// pipeline, batch records at a time (batch <= 0 feeds everything in one
// call).
func onlineResult(cr *capturedRun, batch int) *stream.Result {
	p := stream.New(stream.Config{
		NShared:  len(cr.art.Prog.Globals),
		Mask:     cr.mask,
		VarNames: cr.names,
	})
	feedBatches(p, cr.recs, batch)
	return p.Finish()
}

func feedBatches(p *stream.Pipeline, recs []parallel.FeedRecord, batch int) {
	if batch <= 0 {
		p.Feed(recs)
		return
	}
	for i := 0; i < len(recs); i += batch {
		j := min(i+batch, len(recs))
		p.Feed(recs[i:j])
	}
}

// TestOnlineRacesByteIdentical is the pipeline's acceptance gate: over
// the full workload × (seed, quantum) matrix, the online detector's final
// race set — fed at every batch size — renders byte-identically
// (race.Report) to the batch oracle, and the batch oracle itself is
// agreed on by the indexed and parallel detectors at several worker
// widths. The batch path stays the golden reference; streaming is an
// execution strategy, not a different answer.
func TestOnlineRacesByteIdentical(t *testing.T) {
	cases := workloads.Standard()
	cases = append(cases,
		workloads.Sharded(3, 50),
		workloads.Relay(3, 25),
		workloads.RacyCounter(3, 30, false),
		workloads.RacyCounter(2, 12, true),
	)
	configs := []struct {
		seed    int64
		quantum int
	}{{0, 5}, {3, 40}, {1, 1}, {2, 3}}
	batches := []int{1, 7, 64, 0} // 0 = the whole stream in one Feed
	workers := []int{0, 2, 4, 8}

	for _, wl := range cases {
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("%s/s%d_q%d", wl.Name, cfg.seed, cfg.quantum), func(t *testing.T) {
				cr := captureRun(t, wl.Name+".mpl", wl.Src, cfg.seed, cfg.quantum)
				g := cr.oracleGraph()
				want := race.Report(race.Detect(g, race.Opts{Mask: cr.mask, Workers: 1}), nil)
				for _, w := range workers {
					got := race.Report(race.Detect(g, race.Opts{Mask: cr.mask, Workers: w}), nil)
					if got != want {
						t.Fatalf("parallel oracle (workers=%d) diverges:\n got: %swant: %s", w, got, want)
					}
				}
				for _, b := range batches {
					res := onlineResult(cr, b)
					got := race.Report(res.Races, nil)
					if got != want {
						t.Errorf("online (batch=%d) diverges from batch oracle:\n got: %swant: %s", b, got, want)
					}
					if res.Events != int64(len(cr.recs)) {
						t.Errorf("online (batch=%d) built %d events from %d records", b, res.Events, len(cr.recs))
					}
				}
			})
		}
	}
}

// TestFrontierRetirement pins the memory bound: when every process keeps
// synchronizing (Relay — main is in the ring), nearly every edge retires
// while the run is still going and the frontier high-water mark stays far
// below the total. The live state is bounded by the frontier width, not
// the run length.
//
// The contrast case is pinned too: TokenRing's main blocks on P(done)
// from spawn to teardown, and a live process that stops synchronizing
// correctly holds the frontier open — its next edge is concurrent with
// everything produced meanwhile, so retiring would lose races. There the
// guarantee degrades to "everything retires by Finish".
func TestFrontierRetirement(t *testing.T) {
	t.Run("relay", func(t *testing.T) {
		wl := workloads.Relay(4, 150)
		cr := captureRun(t, wl.Name+".mpl", wl.Src, 1, 7)
		res := onlineResult(cr, 64)
		if res.Events < 500 {
			t.Fatalf("workload too small to exercise retirement: %d events", res.Events)
		}
		if res.Retired < res.Events*8/10 {
			t.Errorf("only %d of %d edges retired before Finish; frontier is not retiring", res.Retired, res.Events)
		}
		if res.Highwater*4 > res.Events {
			t.Errorf("frontier high-water %d vs %d events; live state is not sublinear", res.Highwater, res.Events)
		}
	})
	t.Run("tokenring-pinned", func(t *testing.T) {
		wl := workloads.TokenRing(4, 100)
		cr := captureRun(t, wl.Name+".mpl", wl.Src, 1, 7)
		res := onlineResult(cr, 64)
		if res.Retired < res.Events*8/10 {
			t.Errorf("only %d of %d edges retired by Finish", res.Retired, res.Events)
		}
	})
}

// FuzzStreamBatches drives the differential check with adversarial batch
// boundaries: the fuzz input is interpreted as a sequence of batch sizes,
// and every partition of the record stream must produce the oracle's
// exact report. Any divergence is a real soundness bug (a frontier
// retirement that was too eager, a source matched across the wrong
// boundary), never flake.
func FuzzStreamBatches(f *testing.F) {
	wl := workloads.RacyCounter(3, 10, false)
	cr := captureRun(f, wl.Name+".mpl", wl.Src, 2, 3)
	g := cr.oracleGraph()
	want := race.Report(race.Detect(g, race.Opts{Mask: cr.mask, Workers: 1}), nil)

	f.Add([]byte{1})
	f.Add([]byte{7, 1, 255})
	f.Add([]byte{0, 0, 3})
	f.Add([]byte{64, 2, 2, 2, 90})
	f.Fuzz(func(t *testing.T, sizes []byte) {
		p := stream.New(stream.Config{
			NShared:  len(cr.art.Prog.Globals),
			Mask:     cr.mask,
			VarNames: cr.names,
		})
		recs := cr.recs
		for i := 0; len(recs) > 0; i++ {
			n := 1
			if len(sizes) > 0 {
				n = int(sizes[i%len(sizes)])
			}
			if n <= 0 {
				n = 1 // zero-sized batches would never drain the stream
			}
			n = min(n, len(recs))
			p.Feed(recs[:n])
			recs = recs[n:]
		}
		res := p.Finish()
		got := race.Report(res.Races, nil)
		if got != want {
			t.Errorf("batch partition %v diverges:\n got: %swant: %s", sizes, got, want)
		}
	})
}

// TestStreamLiveStateBounded pins stream mode's memory contract on the
// storage itself, not only the edge count TestFrontierRetirement checks:
// doubling relay's rounds leaves the clock rows and set words the builder
// and pipeline retain within 1.25×, because retired nodes are released and
// their columns compacted.
func TestStreamLiveStateBounded(t *testing.T) {
	retained := func(rounds int) (int, int64) {
		wl := workloads.Relay(4, rounds)
		cr := captureRun(t, wl.Name+".mpl", wl.Src, 1, 7)
		p := stream.New(stream.Config{NShared: len(cr.art.Prog.Globals), Mask: cr.mask, VarNames: cr.names})
		feedBatches(p, cr.recs, 64)
		res := p.Finish()
		return p.Retained(), res.Events
	}
	short, nShort := retained(150)
	long, nLong := retained(300)
	if nLong < 2*nShort-nShort/10 {
		t.Fatalf("relay-4x300 streams %d events vs %d: not enough growth to tell", nLong, nShort)
	}
	if float64(long) > 1.25*float64(short) {
		t.Errorf("retained storage grows with the run: %d words over %d events, %d over %d", short, nShort, long, nLong)
	}
	t.Logf("retained: %d words (%d events), %d words (%d events)", short, nShort, long, nLong)
}

// TestStreamOldSourceOutlivesCompaction pins the side slab: main signals
// s (a remembered 0→1 V) and then relays sixty rounds with the worker, so
// the frontier passes the V and main's columns are compacted. The
// worker's final P(s) still pairs with that V, whose clock row must have
// moved to the side slab; its write then races with main's last one, and
// the online race set must equal the batch oracle's.
func TestStreamOldSourceOutlivesCompaction(t *testing.T) {
	src := `
shared x;
sem s = 0;
chan ab;
chan ba;
func w() {
	var i = 0;
	while (i < 60) {
		var r = recv(ab);
		send(ba, r);
		i = i + 1;
	}
	P(s);
	x = 2;
}
func main() {
	spawn w();
	V(s);
	var i = 0;
	while (i < 60) {
		send(ab, i);
		var r = recv(ba);
		i = i + 1;
	}
	x = 1;
}`
	for _, q := range []int{1, 5, 40} {
		cr := captureRun(t, "oldsource.mpl", src, 1, q)
		want := race.Report(race.Detect(cr.oracleGraph(), race.Opts{Mask: cr.mask, Workers: 1}), nil)
		if !strings.Contains(want, "write/write") {
			t.Fatalf("quantum %d: the oracle finds no race on x:\n%s", q, want)
		}
		for _, b := range []int{1, 64} {
			res := onlineResult(cr, b)
			if got := race.Report(res.Races, nil); got != want {
				t.Errorf("quantum %d batch %d: online diverges:\n got: %swant: %s", q, b, got, want)
			}
			if res.Retired < res.Events/2 {
				t.Errorf("quantum %d batch %d: only %d of %d edges retired; the V was never compacted away", q, b, res.Retired, res.Events)
			}
		}
	}
}
