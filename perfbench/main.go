// Command perfbench is PPD's end-to-end benchmark. It drives PPD through
// its public entry points the way a user does — from MPL source text to a
// race report, a flowback fragment, a restored state, or a verdict from a
// monitored re-run — checks every answer against a reference that does
// not come from the path under test, and prints the metrics as one JSON
// line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload triage --seed 1 --seconds 12 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the same loop untraced and then traced, and prints the per-layer
// split: spans the benchmark records around its own calls into each
// layer, counts read from PPD's observability snapshots, and the tracing
// overhead. See README.md for the workloads and the metric map.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppd"
	"ppd/internal/eblock"
)

const (
	// defaultSeed is the workload seed used while the benchmark and a
	// change are developed; heldOutSeed only confirms a claim afterwards.
	defaultSeed = 1
	heldOutSeed = 7919

	// setupRuns is how many times set-up runs; setup_s is their median.
	setupRuns = 9
	// minSamples is the least number of answers of every kind a timed
	// loop collects, so that each p90 has at least minTail samples beyond
	// it even after contended answers are left out.
	minSamples = 300
	// A timed loop stops once it has run its seconds outside contended
	// periods (see steal.go) and has minSamples answers of every kind, or
	// at the latest after capFactor times its seconds, and not before
	// capFloor, so that a run's length stays bounded and a short test
	// run still reaches minSamples.
	capFactor = 2.5
	capFloor  = 15 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root; fixed programs are read from root/testdata
	work     string // directory for the artifact caches
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: triage, inspect, explore or serve")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	fs.Float64Var(&cfg.seconds, "seconds", 12, "length of one timed loop in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer split of a traced run")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.work, "work", "", "directory for artifact caches (default root/.bench_build/perfbench)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := lookupWorkload(cfg.workload); !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	cfg.trace = trace == 1
	if cfg.work == "" {
		cfg.work = filepath.Join(cfg.root, ".bench_build", "perfbench")
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is one run's outcome. The last line printed is the JSON object
// with correct, attempted, failed and metrics; the lines before it record
// the environment and the sample counts.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	env      map[string]any
	samples  map[string]int
	setups   []float64
	loops    []map[string]any // per timed loop: length and contended time
	problems []string
}

func (r *result) print(w io.Writer) error {
	for n, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// No finite value was measured, say a p90 with too few
			// samples or a median of failed answers; JSON has no NaN.
			m.Value = -1
			r.Metrics[n] = m
			r.Correct = false
		}
	}
	info, err := json.Marshal(map[string]any{"env": r.env, "samples": r.samples, "setup_s": r.setups, "loops": r.loops, "problems": r.problems})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# %s\n", info)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-36s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// run sets the workload up, runs the timed loop untraced and, with
// cfg.trace, splits cfg.seconds between an untraced and a traced loop.
func run(ctx context.Context, cfg config) (*result, error) {
	def, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	inst, dir, setups, setupSpans, err := setUp(ctx, def, cfg)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", cfg.workload, err)
	}
	defer func() {
		inst.close()
		_ = os.RemoveAll(dir) // the cache is scratch; a leftover is harmless
	}()

	res := &result{env: environment(cfg), samples: map[string]int{}, setups: setups}
	loop := cfg.seconds
	if cfg.trace {
		loop /= 2
	}
	base := runPhase(ctx, def, inst, cfg, loop, 0, false)
	phases := []*phase{base}
	res.Metrics = endToEnd(base, setups, &res.problems)
	if cfg.trace {
		traced := runPhase(ctx, def, inst, cfg, loop, 1, true)
		phases = append(phases, traced)
		probe, err := allocProbe(ctx, inst)
		if err != nil {
			return nil, err
		}
		var rejected int64
		if s, ok := inst.(*serve); ok {
			rejected = s.rejected()
		}
		res.Metrics = perLayer(traced, base, setupSpans, probe, rejected)
	}
	for _, ph := range phases {
		res.loops = append(res.loops, map[string]any{
			"elapsed_s":   ph.elapsed.Seconds(),
			"contended_s": ph.watch.lost(ph.elapsed).Seconds(),
			"filtered":    ph.filter,
		})
		a, f := ph.tally()
		res.Attempted += a
		res.Failed += f
		if f > 0 {
			res.problems = append(res.problems, ph.failures())
		}
	}
	for k := kind(0); k < numKinds; k++ {
		res.samples[kindNames[k]] = len(base.latencies(k))
	}
	res.Correct = res.Failed == 0 && len(res.problems) == 0
	return res, nil
}

// setUp sets the workload up setupRuns times, each from an empty artifact
// cache in a fresh directory, and keeps the last set-up. It returns the
// set-up times that overlap no contended period (see steal.go), or all of
// them when fewer than three do not. With cfg.trace it returns the spans
// of the last set-up.
func setUp(ctx context.Context, def workloadDef, cfg config) (inst instance, dir string, secs []float64, spans []span, err error) {
	watch := startStealWatch(time.Now())
	defer watch.close()
	var times []sample
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			inst.close()
			_ = os.RemoveAll(dir)
		}
		if dir, err = os.MkdirTemp(cfg.work, cfg.workload+"-"); err != nil {
			return nil, "", nil, nil, err
		}
		var tr *tracer
		if cfg.trace {
			tr = newTracer(time.Now())
		}
		t0 := time.Now()
		inst, err = def.setup(newClient(ctx, cfg.seed, -1, t0, new(atomic.Int64), tr), cfg, dir)
		times = append(times, sample{at: t0.Sub(watch.epoch), d: time.Since(t0)})
		if err != nil {
			_ = os.RemoveAll(dir)
			return nil, "", nil, nil, err
		}
		if tr != nil {
			spans = tr.spans
		}
	}
	watch.close()
	for _, t := range times {
		if !watch.overlaps(t.at, t.at+t.d) {
			secs = append(secs, t.d.Seconds())
		}
	}
	if len(secs) < 3 {
		secs = secs[:0]
		for _, t := range times {
			secs = append(secs, t.d.Seconds())
		}
	}
	return inst, dir, secs, spans, nil
}

// runPhase runs def's clients in closed loops over inst until the loop
// has had seconds of uncontended time and every question has minSamples
// answers, or until its cap. Phase n
// draws its own inputs, so a later phase never finds an earlier phase's
// generated programs in the artifact cache.
func runPhase(ctx context.Context, def workloadDef, inst instance, cfg config, seconds float64, n int, traced bool) *phase {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	watch := startStealWatch(start)
	target := time.Duration(seconds * float64(time.Second))
	limit := start.Add(max(time.Duration(capFactor*float64(target)), capFloor))
	need := (minSamples + def.clients - 1) / def.clients
	ph := &phase{clients: make([]*client, def.clients)}
	held := new(atomic.Int64)
	var wg sync.WaitGroup
	for i := range ph.clients {
		var tr *tracer
		if traced {
			tr = newTracer(start)
		}
		c := newClient(ctx, cfg.seed, 100*n+i, start, held, tr)
		ph.clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Now()
				if now.After(limit) || watch.clean() >= target && c.enough(need) {
					return
				}
				inst.round(c)
				c.rounds++
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	watch.close()
	ph.settle(watch)
	runtime.ReadMemStats(&ms1)
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	ph.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return ph
}

// enough reports whether every question has at least n answers.
func (c *client) enough(n int) bool {
	for _, xs := range c.lat {
		if len(xs) < n {
			return false
		}
	}
	return true
}

// allocProbe counts heap allocations of single layer calls, outside any
// timed loop: a full compile, a logged run, and the emulation of up to
// eight intervals per process.
func allocProbe(ctx context.Context, inst instance) (map[string]float64, error) {
	var compiles, runs, perEmu []float64
	for _, p := range inst.programs() {
		var prog *ppd.Program
		var exec *ppd.Execution
		var err error
		compiles = append(compiles, allocs(func() {
			prog, err = ppd.CompileOpts(p.name, p.src, eblock.DefaultConfig(), ppd.Options{})
		}))
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		runs = append(runs, allocs(func() {
			exec, err = prog.RunLoggedContext(ctx, ppd.Options{Seed: 1})
		}))
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		ctl := exec.Controller()
		ss := &session{exec: exec}
		var n float64
		a := allocs(func() {
			for pid := 0; pid < ctl.NumProcs(); pid++ {
				ivs := prelogs(ss, pid)
				for _, idx := range ivs[:min(len(ivs), 8)] {
					if _, e := ctl.Graph(pid, idx); e != nil && err == nil {
						err = e
					}
				}
			}
			n = float64(ctl.Emulations())
		})
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		if n > 0 {
			perEmu = append(perEmu, a/n)
		}
	}
	return map[string]float64{
		"compile.allocs":                 median(compiles),
		"vm.logged_allocs":               median(runs),
		"emulation.allocs_per_emulation": nz(median(perEmu)),
	}, nil
}

// allocs counts the heap allocations fn makes.
func allocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// environment records what a result depends on besides the code.
func environment(cfg config) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"commit":      commit,
		"source_hash": sourceHash(cfg.root),
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
	}
}

// sourceHash digests the repository's Go and MPL sources, which names
// the code measured where no commit is recorded.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".mpl" && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
