package main

import (
	"fmt"
	"os"
	"path/filepath"

	"ppd/internal/mplgen"
	"ppd/internal/workloads"
)

// instance is one set-up workload: its inputs generated, its artifact
// cache warm, its server started. round runs one closed-loop round of one
// client and is safe to call from several clients at once.
type instance interface {
	round(c *client)
	// programs returns a few of the workload's inputs for the
	// allocation probe.
	programs() []*program
	close()
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name    string
	clients int
	setup   func(c *client, cfg config, dir string) (instance, error)
}

var workloadDefs = []workloadDef{
	{name: "triage", clients: 1, setup: setupTriage},
	{name: "inspect", clients: 1, setup: setupInspect},
	{name: "explore", clients: 1, setup: setupExplore},
	{name: "serve", clients: 2, setup: setupServe},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func fromWorkload(w *workloads.Workload, racy, hasOutput bool) *program {
	return &program{name: w.Name + ".mpl", src: w.Src, output: w.Output, hasOutput: hasOutput, racy: racy}
}

// family is one kind of program, at each size the benchmark draws from.
type family []*program

// triageFamilies builds the sync-heavy draw: relay, tokenring, prodcons,
// racy-ticker, guarded-counter and sharded over ranges of sizes, plus the
// two fixed programs from testdata. The sizes step finely, so a family's
// costs form a spread rather than a few clusters, and no percentile sits
// on the edge between two sizes.
func triageFamilies(root string) ([]family, error) {
	var relay, ring, pc, ticker, guarded, sharded family
	for _, r := range sizes(15, 45, 5) {
		for _, st := range sizes(3, 6, 1) {
			relay = append(relay, named(fromWorkload(workloads.Relay(st, r), false, true), "relay-%dx%d", st, r))
		}
		for _, w := range sizes(2, 4, 1) {
			ring = append(ring, named(fromWorkload(workloads.TokenRing(w, r), false, true), "tokenring-%dx%d", w, r))
		}
	}
	for _, n := range sizes(50, 300, 25) {
		pc = append(pc, named(fromWorkload(workloads.ProdCons(n), false, true), "prodcons-%d", n))
	}
	for _, r := range sizes(5, 25, 5) {
		for _, w := range sizes(2, 3, 1) {
			// The racy counter's final value depends on the interleaving.
			ticker = append(ticker, named(fromWorkload(workloads.RacyTicker(w, r), true, false), "racy-ticker-%dx%d", w, r))
		}
	}
	for _, n := range sizes(10, 50, 10) {
		for _, w := range sizes(2, 4, 1) {
			guarded = append(guarded, named(fromWorkload(workloads.GuardedCounter(w, n), false, true), "guarded-counter-%dx%d", w, n))
		}
	}
	for _, r := range sizes(10, 40, 10) {
		for _, w := range sizes(2, 6, 1) {
			sharded = append(sharded, fromWorkload(workloads.Sharded(w, r), false, true)) // prints nothing
		}
	}
	racy, err := readProgram(root, "racy.mpl")
	if err != nil {
		return nil, err
	}
	racy.racy = true // two workers increment a shared counter unguarded
	crash, err := readProgram(root, "crash.mpl")
	if err != nil {
		return nil, err
	}
	crash.failure = "division by zero"
	return []family{relay, ring, pc, ticker, guarded, sharded, {racy}, {crash}}, nil
}

// sizes lists lo, lo+step, ... up to hi.
func sizes(lo, hi, step int) []int {
	var xs []int
	for x := lo; x <= hi; x += step {
		xs = append(xs, x)
	}
	return xs
}

func named(p *program, format string, args ...any) *program {
	p.name = fmt.Sprintf(format, args...) + ".mpl"
	return p
}

func readProgram(root, name string) (*program, error) {
	src, err := os.ReadFile(filepath.Join(root, "testdata", name))
	if err != nil {
		return nil, fmt.Errorf("read fixed program: %w", err)
	}
	return &program{name: name, src: string(src)}, nil
}

// drawer draws programs family by family: each cycle visits every family
// once in a shuffled order, and each family deals its sizes from a
// shuffled deck of all of them. The seed decides the order; every seed
// sees the same mix of families and sizes, so a run's figures do not
// hinge on which sizes its seed happened to favour.
type drawer struct {
	fams  []family
	order []int   // families left in this cycle
	decks [][]int // sizes left in each family's deck
}

// draw returns client c's next program from fams. Each client keeps its
// own drawer, so concurrent clients never share one.
func (c *client) draw(fams []family) *program {
	if c.drawer == nil {
		c.drawer = &drawer{fams: fams, decks: make([][]int, len(fams))}
	}
	d := c.drawer
	if len(d.order) == 0 {
		d.order = c.rng.Perm(len(d.fams))
	}
	fi := d.order[0]
	d.order = d.order[1:]
	if len(d.decks[fi]) == 0 {
		d.decks[fi] = c.rng.Perm(len(d.fams[fi]))
	}
	p := d.fams[fi][d.decks[fi][0]]
	d.decks[fi] = d.decks[fi][1:]
	return p
}

// warm compiles every program through the cache in dir, storing each.
func warm(c *client, fams []family, dir string) error {
	for _, f := range fams {
		for _, p := range f {
			if _, err := c.compile(p, dir); err != nil {
				return fmt.Errorf("warm %s: %w", p.name, err)
			}
		}
	}
	return nil
}

func firstOfEach(fams []family) []*program {
	var ps []*program
	for _, f := range fams {
		ps = append(ps, f[0])
	}
	return ps
}

// triage: open → races → flowback at the focus or failure → ReplayTo
// mid-log, then one verdict, over the sync-heavy draw.
type triage struct {
	fams []family
	dir  string
}

func setupTriage(c *client, cfg config, dir string) (instance, error) {
	fams, err := triageFamilies(cfg.root)
	if err != nil {
		return nil, err
	}
	if err := warm(c, fams, dir); err != nil {
		return nil, err
	}
	return &triage{fams: fams, dir: dir}, nil
}

func (t *triage) round(c *client) {
	p := c.draw(t.fams)
	seed := c.schedSeed()
	ss := c.askRaces(p, seed, t.dir)
	if ss != nil {
		pid := 0
		if f := ss.ctl.Failure; f != nil {
			pid = f.PID
		} else {
			pid = c.pid(p, ss.ctl.NumProcs())
		}
		c.askFlowback(ss.ctl, pid, -1)
		c.askReplay(ss, pid, len(ss.exec.Log().Books[pid].Records)/2)
		c.collect(ss)
	}
	c.askVerdicts(p, seed, t.dir, 1)
}

func (t *triage) programs() []*program { return firstOfEach(t.fams) }
func (t *triage) close()               {}

// inspect: open one compute-heavy single-process program, then walk its
// intervals with flowback and ReplayTo questions.
type inspect struct {
	fams []family
	dir  string
}

// walkSteps is the length of one inspect walk. Three steps in four ask
// for a flowback; with 17 steps in 20 moving forward, a walk over divide
// asks for more distinct intervals (about 150) than the controller's
// default interval cache holds (128).
const walkSteps = 256

func setupInspect(c *client, cfg config, dir string) (instance, error) {
	// matmul's sizes run past the largest divide, so the slowest tenth
	// of the answers is a spread of matmul sizes, not one program.
	var matmul, divide, histo family
	for _, n := range sizes(6, 18, 1) {
		matmul = append(matmul, named(fromWorkload(workloads.Matmul(n), false, true), "matmul-%d", n))
	}
	for _, d := range sizes(7, 9, 1) {
		divide = append(divide, named(fromWorkload(workloads.Divide(d), false, true), "divide-%d", d))
	}
	for _, r := range sizes(10, 80, 5) {
		histo = append(histo, named(fromWorkload(workloads.Histo(r), false, true), "histo-%d", r))
	}
	fams := []family{matmul, divide, histo}
	if err := warm(c, fams, dir); err != nil {
		return nil, err
	}
	return &inspect{fams: fams, dir: dir}, nil
}

func (in *inspect) round(c *client) {
	p := c.draw(in.fams)
	seed := c.schedSeed()
	ss := c.askRaces(p, seed, in.dir)
	if ss != nil {
		ivs := prelogs(ss, 0)
		at := c.rng.Intn(len(ivs))
		for i := 0; i < walkSteps; i++ {
			switch r := c.rng.Intn(20); {
			case r < 17:
				at = (at + 1) % len(ivs)
			case r < 18:
				at = (at + len(ivs) - 1) % len(ivs)
			default:
				at = c.rng.Intn(len(ivs))
			}
			if c.rng.Intn(4) != 0 {
				c.askFlowback(ss.ctl, 0, ivs[at])
			} else {
				c.askReplay(ss, 0, ivs[at])
			}
		}
		c.collect(ss)
	}
	c.askVerdicts(p, seed, in.dir, roundVerdicts)
}

func (in *inspect) programs() []*program { return firstOfEach(in.fams) }
func (in *inspect) close()               {}

// explore: a fresh generated program every round, alternating the
// race-free and the racy generator configurations, so every compile
// misses the artifact cache and stores a new entry; then a few monitored
// re-runs under new scheduler seeds.
type explore struct {
	dir string
}

// roundVerdicts is the number of monitored re-runs per inspect and
// explore round: one per round would leave inspect's few long rounds too
// few verdicts for a steady p90.
const roundVerdicts = 3

func setupExplore(c *client, cfg config, dir string) (instance, error) {
	// Generate and compile a warm-up batch, disjoint from the programs
	// the timed loop draws.
	for i := int64(0); i < 16; i++ {
		if _, err := c.compile(generated(-1-i), dir); err != nil {
			return nil, err
		}
	}
	return &explore{dir: dir}, nil
}

// generated is the program mplgen builds from seed: the racy
// configuration for odd seeds, the race-free parallel one for even seeds.
func generated(seed int64) *program {
	cfg, racy := mplgen.ParallelConfig(), seed%2 != 0
	if racy {
		cfg = mplgen.RacyConfig()
	}
	return &program{name: fmt.Sprintf("gen%d.mpl", seed), src: mplgen.Generate(seed, cfg), racy: racy}
}

func (e *explore) round(c *client) {
	p := generated(2*c.rng.Int63n(1<<40) + int64(c.rounds%2))
	seed := c.schedSeed()
	ss := c.askRaces(p, seed, e.dir)
	if ss != nil {
		// Every program is new, so the rounds take the processes in turn.
		pid := c.rounds % ss.ctl.NumProcs()
		c.askFlowback(ss.ctl, pid, -1)
		c.askReplay(ss, pid, len(ss.exec.Log().Books[pid].Records)/2)
		c.collect(ss)
	}
	c.askVerdicts(p, seed, e.dir, roundVerdicts)
}

func (e *explore) programs() []*program {
	return []*program{generated(1 << 41), generated(1<<41 + 1)}
}
func (e *explore) close() {}
