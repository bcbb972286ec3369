package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"ppd"
	"ppd/internal/controller"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/replay"
)

// kind is a question a user asks PPD.
type kind int

const (
	qRaces    kind = iota // source text to race report
	qFlowback             // flowback fragment of one interval
	qReplay               // state restoration at a record index
	qVerdict              // monitored re-run under a new scheduler seed
	numKinds
)

var kindNames = [numKinds]string{"races", "flowback", "replay", "verdict"}

// flowbackDepth is the fragment depth every flowback question renders.
const flowbackDepth = 4

// client is one closed-loop client. It owns everything it records, so
// concurrent clients never share mutable state; the run merges them.
type client struct {
	ctx context.Context
	rng *rand.Rand
	tr  *tracer // nil in the untraced run

	rounds int              // rounds completed
	drawer *drawer          // this client's program draw
	visits map[*program]int // flowbacks asked per program, for pid

	epoch     time.Time          // the phase's start; samples are relative to it
	lat       [numKinds][]sample // every answer; a failed one has d < 0
	attempted int
	failed    int
	failures  []string // the first few failure messages

	runs []runPair // each races answer's logged run and its bare reference run

	// liveHeap is the live heap after each GC cycle the client saw end,
	// sampled after every answer, less held: the bytes the phase's
	// clients keep in their own recordings, so that recording more
	// answers does not read as a bigger heap.
	liveHeap  []float64
	lastCycle uint64
	held      *atomic.Int64
	heap      []metrics.Sample

	// counts holds per-layer counts read at layer boundaries in the
	// traced run: one value per observation, keyed by metric.
	counts map[string][]float64
}

// sample is one timed call: when it started, relative to the phase's
// start, and how long it took.
type sample struct{ at, d time.Duration }

// runPair is one program run logged and bare under the same seed.
type runPair struct{ logged, bare sample }

func newClient(ctx context.Context, seed int64, id int, epoch time.Time, held *atomic.Int64, tr *tracer) *client {
	return &client{
		ctx:   ctx,
		rng:   rand.New(rand.NewSource(seed*1000003 + int64(id))),
		tr:    tr,
		epoch: epoch,
		held:  held,
		heap: []metrics.Sample{
			{Name: "/gc/cycles/total:gc-cycles"},
			{Name: "/gc/heap/live:bytes"},
		},
		counts: map[string][]float64{},
		visits: map[*program]int{},
	}
}

// timed runs one answer's call with a root span around it.
func (c *client) timed(k kind, call func() error) (sample, error) {
	root := c.tr.begin(kindNames[k])
	s, err := c.clock(call)
	c.tr.end(root)
	return s, err
}

// clock times fn.
func (c *client) clock(fn func() error) (sample, error) {
	t0 := time.Now()
	err := fn()
	return sample{at: t0.Sub(c.epoch), d: time.Since(t0)}, err
}

// record tallies one answer. err is the call's error or the failed check
// against the reference; a failed answer counts as missing every latency
// limit. The live heap is sampled after every answer.
func (c *client) record(k kind, s sample, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		s.d = -1
		if len(c.failures) < 5 {
			c.failures = append(c.failures, fmt.Sprintf("%s: %v", kindNames[k], err))
		}
	}
	n := cap(c.lat[k])
	c.lat[k] = append(c.lat[k], s)
	c.hold(cap(c.lat[k])-n, unsafe.Sizeof(s))
	metrics.Read(c.heap)
	cycle, live := c.heap[0].Value, c.heap[1].Value
	if cycle.Kind() == metrics.KindUint64 && live.Kind() == metrics.KindUint64 && cycle.Uint64() != c.lastCycle {
		c.lastCycle = cycle.Uint64()
		n := cap(c.liveHeap)
		c.liveHeap = append(c.liveHeap, float64(live.Uint64())-float64(c.held.Load()))
		c.hold(cap(c.liveHeap)-n, unsafe.Sizeof(float64(0)))
	}
}

// hold counts n more elements of size bytes kept in a recording.
func (c *client) hold(n int, size uintptr) {
	c.held.Add(int64(n) * int64(size))
}

// fault counts a failed step that is not itself an answer, such as
// closing a session, as a failed answer.
func (c *client) fault(err error) {
	c.attempted++
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, err.Error())
	}
}

// ask is timed followed by record, for answers checked inside call.
func (c *client) ask(k kind, call func() error) {
	s, err := c.timed(k, call)
	c.record(k, s, err)
}

// count records one traced observation of a per-layer count.
func (c *client) count(name string, v float64) {
	if c.tr != nil {
		c.counts[name] = append(c.counts[name], v)
	}
}

// program is one benchmark input together with what it is known to do.
// The expectations come from how the program was built, never from the
// path under test.
type program struct {
	name      string
	src       string
	output    string // expected output when hasOutput
	hasOutput bool   // false: the output must equal a bare run's
	racy      bool   // built to race: must report at least one race
	failure   string // substring of the expected run failure; "" = none
}

// session is one logged execution and what the races question found.
type session struct {
	prog   *ppd.Program
	exec   *ppd.Execution
	ctl    *ppd.Controller
	report string
	races  int
	out    string
	logged sample // the logged run
}

// compile calls ppd.CompileOpts through the artifact cache in dir.
func (c *client) compile(p *program, dir string) (*ppd.Program, error) {
	s := c.tr.begin("compile")
	prog, err := ppd.CompileOpts(p.name, p.src, eblock.DefaultConfig(), ppd.Options{CacheDir: dir})
	c.tr.end(s)
	if err == nil && c.tr != nil {
		tag := "miss"
		if prog.CompileStats().Counter("compile.cache.hits") > 0 {
			tag = "hit"
		}
		c.tr.tag(s, tag)
	}
	return prog, err
}

// raceSession is the in-process races question: compile through the
// cache, run logged, build the controller, vet, and detect races, with a
// span around each layer call.
func (c *client) raceSession(p *program, seed int64, dir string) (*session, error) {
	prog, err := c.compile(p, dir)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	var exec *ppd.Execution
	s := c.tr.begin("vm")
	logged, err := c.clock(func() (err error) {
		exec, err = prog.RunLoggedContext(c.ctx, ppd.Options{Seed: seed, Output: &out})
		return err
	})
	c.tr.end(s)
	c.tr.tag(s, "logged")
	if err != nil {
		return nil, err
	}
	s = c.tr.begin("parallel")
	ctl := exec.Controller()
	c.tr.end(s)
	s = c.tr.begin("analysis")
	prog.Vet()
	c.tr.end(s)
	s = c.tr.begin("race")
	races := ctl.Races()
	report := ctl.RaceReport()
	c.tr.end(s)
	return &session{prog: prog, exec: exec, ctl: ctl, report: report, races: len(races), out: out.String(), logged: logged}, nil
}

// bare runs ss's program without logging under the same seed and
// quantum, for log_slowdown and as the output reference of programs with
// no fixed expected output. A failing program's bare run fails too; its
// output is still the reference, so the run error is not returned.
func (c *client) bare(ss *session, seed int64) string {
	var out bytes.Buffer
	root := c.tr.begin("bare")
	s := c.tr.begin("vm")
	run, _ := c.clock(func() error {
		return ss.prog.RunContext(c.ctx, ppd.Options{Seed: seed, Output: &out})
	})
	c.tr.end(s)
	c.tr.tag(s, "bare")
	c.tr.end(root)
	n := cap(c.runs)
	c.runs = append(c.runs, runPair{logged: ss.logged, bare: run})
	c.hold(cap(c.runs)-n, unsafe.Sizeof(runPair{}))
	return out.String()
}

// checkRun compares a logged run with what p was built to do.
func checkRun(p *program, out, bareOut, failed string, deadlocked bool, races int) error {
	want := p.output
	if !p.hasOutput {
		want = bareOut
	}
	switch {
	case out != want:
		return fmt.Errorf("%s: output %q, want %q", p.name, out, want)
	case p.failure == "" && failed != "":
		return fmt.Errorf("%s: unexpected failure %q", p.name, failed)
	case p.failure != "" && !strings.Contains(failed, p.failure):
		return fmt.Errorf("%s: failure %q, want one naming %q", p.name, failed, p.failure)
	case deadlocked:
		return fmt.Errorf("%s: deadlocked", p.name)
	case (races > 0) != p.racy:
		return fmt.Errorf("%s: %d races, built racy=%t", p.name, races, p.racy)
	}
	return nil
}

// askRaces asks the races question in process, runs the bare reference,
// and checks the answer. It returns nil when the answer failed.
func (c *client) askRaces(p *program, seed int64, dir string) *session {
	var ss *session
	s, err := c.timed(qRaces, func() (err error) {
		ss, err = c.raceSession(p, seed, dir)
		return err
	})
	if err == nil {
		bareOut := c.bare(ss, seed)
		failed := ""
		if f := ss.exec.Failed(); f != nil {
			failed = f.Error()
		}
		err = checkRun(p, ss.out, bareOut, failed, ss.exec.Deadlocked(), ss.races)
	}
	c.record(qRaces, s, err)
	if err != nil {
		return nil
	}
	return ss
}

// askFlowback asks for the flowback fragment of interval idx of pid (the
// focus interval when idx < 0): emulate it or hit the interval cache,
// then render the fragment.
func (c *client) askFlowback(ctl *ppd.Controller, pid, idx int) {
	c.ask(qFlowback, func() error {
		s := c.tr.begin("emulation")
		var before int64
		if c.tr != nil {
			before = ctl.Emulations()
		}
		var g *ppd.DynamicGraph
		var err error
		if idx < 0 {
			g, _, err = ctl.CurrentGraph(pid)
		} else {
			g, err = ctl.Graph(pid, idx)
		}
		c.tr.end(s)
		if c.tr != nil {
			tag := "hit"
			if ctl.Emulations() > before {
				tag = "miss"
			}
			c.tr.tag(s, tag)
		}
		if err != nil {
			return err
		}
		s = c.tr.begin("controller")
		var frag string
		n := g.LastNode()
		if idx < 0 {
			n = ctl.FocusNode(g, pid)
		}
		if n != nil {
			frag = controller.RenderFragment(g, n.ID, flowbackDepth)
		}
		c.tr.end(s)
		if frag == "" {
			return fmt.Errorf("empty flowback for P%d interval %d", pid+1, idx)
		}
		return nil
	})
}

// askReplay restores pid's state at record idx. Every answer must cover
// exactly the requested prefix; every eighth is compared in full with the
// uncheckpointed fold from the start of the log.
func (c *client) askReplay(ss *session, pid, idx int) {
	var snap *ppd.StateSnapshot
	s, err := c.timed(qReplay, func() (err error) {
		s := c.tr.begin("replay")
		snap, err = ss.ctl.ReplayTo(pid, idx)
		c.tr.end(s)
		return err
	})
	if err == nil {
		book := ss.exec.Log().Books[pid]
		switch {
		case snap.UpTo != idx:
			err = fmt.Errorf("ReplayTo(P%d, %d) covers %d records", pid+1, idx, snap.UpTo)
		case c.rng.Intn(8) == 0 && !sameGlobals(snap.Globals, replay.RestoreAt(ss.prog.Artifacts().Prog, book, idx).Globals):
			err = fmt.Errorf("ReplayTo(P%d, %d) differs from the fold from the start", pid+1, idx)
		}
	}
	c.record(qReplay, s, err)
}

func sameGlobals(a, b []logging.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Int != b[i].Int || len(a[i].Arr) != len(b[i].Arr) {
			return false
		}
		for j := range a[i].Arr {
			if a[i].Arr[j] != b[i].Arr[j] {
				return false
			}
		}
	}
	return true
}

// askVerdicts opens a session on p and asks n verdicts: monitored re-runs
// under fresh scheduler seeds, each judged by its final online race set.
func (c *client) askVerdicts(p *program, seed int64, dir string, n int) {
	root := c.tr.begin("open")
	sess, err := ppd.OpenSessionContext(c.ctx, p.name, p.src, ppd.Options{Seed: seed, CacheDir: dir})
	c.tr.end(root)
	if err != nil {
		for i := 0; i < n; i++ {
			c.record(qVerdict, sample{}, err)
		}
		return
	}
	defer sess.Close()
	for i := 0; i < n; i++ {
		var res *ppd.StreamResult
		s, err := c.timed(qVerdict, func() (err error) {
			s := c.tr.begin("stream")
			res, err = sess.StreamRaces(c.ctx, ppd.Options{Seed: c.schedSeed()}, nil)
			c.tr.end(s)
			return err
		})
		if err == nil {
			if (len(res.Races) > 0) != p.racy {
				err = fmt.Errorf("%s: monitored run found %d races, built racy=%t", p.name, len(res.Races), p.racy)
			}
			c.count("stream.pairs", float64(res.Pairs))
			c.count("stream.highwater", float64(res.Highwater))
			c.count("stream.retired", float64(res.Retired))
			c.count("stream.events", float64(res.Events))
		}
		c.record(qVerdict, s, err)
	}
}

// pid returns the process whose focus the next flowback on p asks about:
// each client visits p's procs processes in turn, so that every run asks
// about the same mix of processes rather than a random one.
func (c *client) pid(p *program, procs int) int {
	n := c.visits[p]
	c.visits[p]++
	return n % max(procs, 1)
}

// schedSeed draws a nonzero scheduler seed: a seeded random interleaving.
func (c *client) schedSeed() int64 { return 1 + c.rng.Int63n(1<<30) }

// collect reads a finished round's per-layer counts from the execution's
// observability snapshot. Traced runs only.
func (c *client) collect(ss *session) {
	if c.tr == nil {
		return
	}
	st := ss.exec.Stats()
	for _, m := range []struct{ metric, counter string }{
		{"vm.steps", "exec.steps"},
		{"vm.ctxswitches", "exec.ctxswitches"},
		{"logging.bytes", "exec.log.bytes"},
		{"logging.sync_records", "exec.log.records.sync"},
		{"logging.sync_bytes", "exec.log.bytes.sync"},
		{"race.pairs", "race.pairs"},
		{"race.buckets_pruned", "race.buckets.pruned"},
		{"emulation.pool_hits", "debug.emu.pool.hits"},
		{"emulation.pool_misses", "debug.emu.pool.misses"},
		{"emulation.fast", "debug.emu.dispatch.fast"},
		{"emulation.cold", "debug.emu.dispatch.cold"},
		{"controller.hits", "debug.cache.hits"},
		{"controller.misses", "debug.cache.misses"},
		{"replay.ckpt_hits", "debug.emu.ckpt.hits"},
		{"replay.ckpt_stores", "debug.emu.ckpt.stores"},
		{"sched.tasks", "sched.tasks"},
	} {
		c.count(m.metric, float64(st.Counter(m.counter)))
	}
	c.count("compile.instrs", float64(ss.prog.Artifacts().Prog.NumInstrs()))
	c.count("race.races", float64(ss.races))
	c.count("emulation.emulations", float64(ss.ctl.Emulations()))
	c.count("parallel.edges", float64(len(ss.ctl.Parallel().Edges)))
	c.count("sched.busy_ms", float64(st.Timer("sched.busy").TotalNS)/1e6)
	c.count("sched.wait_ms", float64(st.Timer("sched.wait").TotalNS)/1e6)
}

// prelogs lists the record indices of pid's interval prelogs.
func prelogs(ss *session, pid int) []int {
	var idx []int
	for i, r := range ss.exec.Log().Books[pid].Records {
		if r.Kind == logging.RecPrelog {
			idx = append(idx, i)
		}
	}
	return idx
}
