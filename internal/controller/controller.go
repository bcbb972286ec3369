// Package controller implements the PPD Controller (§3.2.3): the debugging
// phase's orchestrator. It owns the preparatory-phase artifacts and the
// execution-phase logs, and answers flowback queries by locating the log
// interval that covers the requested events, directing the emulation
// package to regenerate that interval's traces, and building or extending
// dynamic program dependence graphs — the paper's incremental tracing.
//
// Cross-process queries (§5.6, §6.3) go through the parallel dynamic graph:
// a shared-variable value that flowed into an interval from outside is
// resolved to the last ordered writer edge in another process, whose own
// interval can then be emulated and grafted into the user's view.
package controller

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ppd/internal/ast"
	"ppd/internal/compile"
	"ppd/internal/dynpdg"
	"ppd/internal/emulation"
	"ppd/internal/logging"
	"ppd/internal/obs"
	"ppd/internal/parallel"
	"ppd/internal/race"
	"ppd/internal/sched"
	"ppd/internal/vm"
)

// DefaultCacheBound is the default LRU capacity of the per-interval
// graph/result cache: enough that an interactive session never thrashes,
// small enough that a sweep across thousands of intervals cannot hold
// every dynamic graph alive.
const DefaultCacheBound = 128

// Controller is the debugging-phase coordinator. All query methods are
// safe for concurrent use; PrefetchNeighbors exploits that by warming the
// interval cache on the shared worker pool while the user inspects a node.
type Controller struct {
	Art *compile.Artifacts
	Log *logging.ProgramLog

	// Failure is the error that halted execution, if any.
	Failure *vm.RuntimeError

	// Deadlock reports whether execution ended blocked.
	Deadlock bool

	pgraph *parallel.Graph
	emus   []*emulation.Emulator
	pool   *sched.Pool
	// epool is the replay-context pool shared by every per-process
	// emulator (and the prefetcher behind them), bounded by the worker
	// count so concurrent sessions cannot hoard a VM per in-flight query.
	epool *emulation.Pool

	// Observability (nil / no-op when disabled). The counters are resolved
	// once at construction so query paths never do name lookups.
	obs       *obs.Sink
	cHits     *obs.Counter
	cMisses   *obs.Counter
	cEvicts   *obs.Counter
	cCkHits   *obs.Counter
	cCkStores *obs.Counter
	tEmu      *obs.Timer

	// Checkpointed state restoration (ReplayTo): every ckEvery-th record
	// boundary's fold state is snapshotted per process, bounding a later
	// restore to folding at most ckEvery records past the nearest
	// checkpoint instead of the whole run prefix. It is always
	// DefaultCheckpointEvery outside this package's tests.
	ckEvery int
	ckMu    sync.Mutex
	ckpts   [][]ckpt

	// mu guards cache and races. Emulation itself runs outside the lock
	// so concurrent misses on different intervals proceed in parallel.
	mu sync.Mutex
	// cache memoizes (pid, prelogIdx) → (dynamic graph, emulation result)
	// under an LRU bound: the log is immutable post-run, so entries never
	// invalidate, only age out.
	cache *intervalLRU
	// races memoizes Races(): the graph never changes, so the detector
	// runs at most once per controller.
	races     []*race.Race
	racesDone bool
}

// Config tunes a controller. The zero value reproduces the defaults the
// positional constructor used to hard-code: a clean-exit execution, the
// shared GOMAXPROCS pool, DefaultCacheBound, no observation.
type Config struct {
	// Failure is the runtime error that halted execution, if any.
	Failure *vm.RuntimeError
	// Deadlock reports whether execution ended with blocked processes.
	Deadlock bool
	// Workers bounds the debugging phase's fan-out for this controller.
	// <= 0 uses the process-wide shared pool (GOMAXPROCS workers).
	Workers int
	// CacheBound caps the interval LRU: 0 means DefaultCacheBound, < 0
	// removes the bound, > 0 is the bound itself.
	CacheBound int
	// Obs receives debugging-phase metrics (debug.*, sched.*, race.*).
	// nil disables observation at the cost of one nil check per query.
	Obs *obs.Sink
}

// NewWithConfig builds a controller from the compiled artifacts and an
// execution's logs.
func NewWithConfig(art *compile.Artifacts, pl *logging.ProgramLog, cfg Config) *Controller {
	bound := cfg.CacheBound
	if bound == 0 {
		bound = DefaultCacheBound
	}
	c := &Controller{
		Art:      art,
		Log:      pl,
		Failure:  cfg.Failure,
		Deadlock: cfg.Deadlock,
		cache:    newIntervalLRU(bound),
		ckEvery:  DefaultCheckpointEvery,
		ckpts:    make([][]ckpt, len(pl.Books)),
	}
	switch {
	case cfg.Workers > 0 || cfg.Obs != nil:
		// A private pool: either the caller bounded the fan-out, or pool
		// utilization must be observable (the shared pool is unobserved).
		c.pool = sched.NewObs(cfg.Workers, cfg.Obs)
	default:
		c.pool = sched.Shared()
	}
	if cfg.Obs != nil {
		c.obs = cfg.Obs
		c.cHits = cfg.Obs.Counter("debug.cache.hits")
		c.cMisses = cfg.Obs.Counter("debug.cache.misses")
		c.cEvicts = cfg.Obs.Counter("debug.cache.evictions")
		c.cCkHits = cfg.Obs.Counter("debug.emu.ckpt.hits")
		c.cCkStores = cfg.Obs.Counter("debug.emu.ckpt.stores")
		c.tEmu = cfg.Obs.Timer("debug.emulate")
	}
	sc := c.obs.Scope("debug.build")
	// One replay-context pool for every emulator, sized to the worker
	// count: the prefetcher's concurrent emulations each get a context,
	// but an idle controller retains at most this many pooled VMs.
	c.epool = emulation.NewPool(art.Prog, max(2, c.pool.Workers()), cfg.Obs)
	c.emus = make([]*emulation.Emulator, len(pl.Books))
	for pid, book := range pl.Books {
		c.emus[pid] = emulation.New(art.Prog, book)
		c.emus[pid].SetPool(c.epool)
	}
	c.pgraph = parallel.Build(pl, len(art.Prog.Globals))
	names := make([]string, len(art.Prog.Globals))
	for gid, def := range art.Prog.Globals {
		names[gid] = def.Name
	}
	c.pgraph.VarNames = names
	sc.End()
	return c
}

// New is the thin compatibility constructor predating Config: failure and
// deadlock describe how the execution ended, everything else defaults.
func New(art *compile.Artifacts, pl *logging.ProgramLog, failure *vm.RuntimeError, deadlock bool) *Controller {
	return NewWithConfig(art, pl, Config{Failure: failure, Deadlock: deadlock})
}

// SetCacheBound resizes the interval cache (entries beyond the new bound
// are evicted oldest-first). n <= 0 removes the bound.
func (c *Controller) SetCacheBound(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cEvicts.Add(int64(c.cache.setCap(n)))
}

// DropCache empties the interval cache, releasing every cached dynamic
// graph and emulation result, and returns the number of entries released.
// The releases are reported as debug.cache.evictions. Session teardown
// (Close, the serving daemon's TTL eviction) uses this to free the
// debugging phase's memory without discarding the controller itself:
// later queries still work, they just re-emulate.
func (c *Controller) DropCache() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.cache.drop()
	c.cEvicts.Add(int64(n))
	return n
}

// Emulations returns the total number of VM re-executions performed across
// all processes — the observable that proves cache hits skip the VM.
func (c *Controller) Emulations() int64 {
	var n int64
	for _, em := range c.emus {
		n += em.Emulations()
	}
	return n
}

// FromRun is a convenience constructor from a finished ModeLog VM.
func FromRun(art *compile.Artifacts, v *vm.VM) *Controller {
	return New(art, v.Log, v.Failure, v.Deadlock)
}

// FromRunConfig builds a controller from a finished ModeLog VM, taking the
// execution outcome from the VM and everything else from cfg (whose Failure
// and Deadlock fields are overwritten).
func FromRunConfig(art *compile.Artifacts, v *vm.VM, cfg Config) *Controller {
	cfg.Failure = v.Failure
	cfg.Deadlock = v.Deadlock
	return NewWithConfig(art, v.Log, cfg)
}

// NumProcs returns the number of processes in the execution.
func (c *Controller) NumProcs() int { return c.Log.NumProcs() }

// Parallel returns the parallel dynamic graph.
func (c *Controller) Parallel() *parallel.Graph { return c.pgraph }

// Emulator returns the per-process emulator.
func (c *Controller) Emulator(pid int) *emulation.Emulator { return c.emus[pid] }

// Races runs the race detector over the execution (§6.4), sharded across
// the worker pool, and memoizes the result: the parallel graph is immutable
// post-run, so the detector runs at most once per controller. The race set
// is identical at every worker count and to race.Naive's.
//
// The detector is filtered by the static conflict matrix of the program's
// vet result (Artifacts.Vet: the persisted result on cache-loaded
// artifacts, otherwise computed once from the compile-time
// abstract-interpretation facts): buckets of variables no pair of
// processes can statically conflict on are skipped. The filter
// cannot change the result — the matrix over-approximates every dynamic
// conflict — it only removes work.
func (c *Controller) Races() []*race.Race {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.racesDone {
		mask := c.Art.Vet(c.obs).Conflicts.Mask()
		c.races = race.Detect(c.pgraph, race.Opts{Mask: mask, Workers: c.pool.Workers(), Obs: c.obs})
		c.racesDone = true
	}
	return c.races
}

// DeadlockReport analyzes blocked processes (§6's deadlock-cause help).
func (c *Controller) DeadlockReport() string {
	info := c.pgraph.AnalyzeDeadlock()
	return info.Report(
		func(gid int) string {
			if gid >= 0 && gid < len(c.Art.Prog.Globals) {
				return c.Art.Prog.Globals[gid].Name
			}
			return fmt.Sprintf("global%d", gid)
		},
		func(id ast.StmtID) string {
			if where, ok := c.Art.Stmts.Where(id); ok {
				return where
			}
			return fmt.Sprintf("s%d", id)
		})
}

// RaceReport renders the race list with variable names.
func (c *Controller) RaceReport() string {
	return race.Report(c.Races(), func(gid int) string {
		return c.Art.Prog.Globals[gid].Name
	})
}

// FocusInterval selects the interval a debugging session starts from for a
// process: the last open prelog when the process halted mid-interval,
// otherwise the last interval executed.
func (c *Controller) FocusInterval(pid int) (int, error) {
	if pid < 0 || pid >= len(c.emus) {
		return -1, fmt.Errorf("controller: no process %d", pid)
	}
	em := c.emus[pid]
	if idx := em.FindLastOpenPrelog(); idx >= 0 {
		return idx, nil
	}
	// Every interval completed: focus on the outermost one (the process's
	// entry function), which contains the last statement executed.
	if idx := em.FirstPrelog(); idx >= 0 {
		return idx, nil
	}
	return -1, fmt.Errorf("controller: process %d logged no intervals", pid)
}

// Graph returns (building and caching on demand) the dynamic graph of the
// interval whose prelog is at record index prelogIdx of process pid. This
// is the incremental step: only the requested interval is ever emulated,
// and a repeated query is served from the LRU cache without touching the
// VM at all.
func (c *Controller) Graph(pid, prelogIdx int) (*dynpdg.Graph, error) {
	ent, err := c.interval(pid, prelogIdx)
	if err != nil {
		return nil, err
	}
	return ent.graph, nil
}

// interval is the memoized emulate-and-build step behind Graph, Result,
// and the prefetcher. Emulation and graph construction are one pass: the
// emulator hands each trace event to the builder as it is produced. They
// run outside the lock so cache misses on different intervals overlap; if
// two goroutines race on the same miss, the first insertion wins and both
// observe the same entry (pointer stability for cached graphs).
func (c *Controller) interval(pid, prelogIdx int) (*intervalEntry, error) {
	if pid < 0 || pid >= len(c.emus) {
		return nil, fmt.Errorf("controller: no process %d", pid)
	}
	key := [2]int{pid, prelogIdx}
	c.mu.Lock()
	if ent, ok := c.cache.get(key); ok {
		c.mu.Unlock()
		c.cHits.Inc()
		return ent, nil
	}
	c.mu.Unlock()
	c.cMisses.Inc()

	// No trace is stored: the entry holds the graph and the result's
	// scalar fields.
	em := c.emus[pid]
	fn, err := em.IntervalFunc(prelogIdx)
	if err != nil {
		return nil, err
	}
	sw := c.tEmu.Start()
	b := dynpdg.NewBuilder(c.Art, fn.Name)
	res := &emulation.Result{}
	if err := em.EmulateTo(prelogIdx, res, b); err != nil {
		return nil, err
	}
	ent := &intervalEntry{graph: b.Graph(), res: res}
	sw.Stop()

	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.cache.get(key); ok {
		return prev, nil // lost a concurrent miss: keep the first entry
	}
	c.cEvicts.Add(int64(c.cache.add(key, ent)))
	return ent, nil
}

// Result returns the cached emulation result for an interval (after Graph):
// its Globals, RecordsConsumed, Completed and Err. Its Trace is nil — the
// events were streamed into the interval's graph, never stored. It returns
// nil when the interval was never emulated or its entry has aged out of the
// LRU bound.
func (c *Controller) Result(pid, prelogIdx int) *emulation.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.cache.get([2]int{pid, prelogIdx}); ok {
		return ent.res
	}
	return nil
}

// FocusNode picks the node a debugging session roots at: the last instance
// of the failing statement when the process failed, otherwise the last
// event of the interval.
func (c *Controller) FocusNode(g *dynpdg.Graph, pid int) *dynpdg.Node {
	if c.Failure != nil && c.Failure.PID == pid {
		// Prefer the statement's own singular node over the %n and
		// sub-graph nodes that share its statement ID.
		var singular, other *dynpdg.Node
		for _, n := range g.NodesForStmt(c.Failure.Stmt) {
			switch n.Kind {
			case dynpdg.NodeSingular:
				singular = n
			case dynpdg.NodeSubGraph, dynpdg.NodeSync:
				other = n
			}
		}
		if singular != nil {
			return singular
		}
		if other != nil {
			return other
		}
	}
	return g.LastNode()
}

// CurrentGraph builds the graph for the focus interval of pid.
func (c *Controller) CurrentGraph(pid int) (*dynpdg.Graph, int, error) {
	idx, err := c.FocusInterval(pid)
	if err != nil {
		return nil, -1, err
	}
	g, err := c.Graph(pid, idx)
	return g, idx, err
}

// IntervalContaining returns the record index of the innermost prelog whose
// interval covers record index ri in pid's book, or -1.
func (c *Controller) IntervalContaining(pid, ri int) int {
	var stack []int
	innermost := -1
	for i, r := range c.Log.Books[pid].Records {
		if i > ri {
			break
		}
		switch r.Kind {
		case logging.RecPrelog:
			stack = append(stack, i)
		case logging.RecPostlog:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		}
		if i == ri && len(stack) > 0 {
			innermost = stack[len(stack)-1]
		}
	}
	if innermost == -1 && len(stack) > 0 {
		innermost = stack[len(stack)-1]
	}
	return innermost
}

// CrossRef is the answer to a cross-process flowback query: the writer
// process, its internal edge, and the interval to emulate for detail.
type CrossRef struct {
	PID       int
	Edge      *parallel.InternalEdge
	PrelogIdx int // interval containing the write; -1 if outside any
	Racy      bool
	// RacyWith lists other unordered writer edges (the value's provenance
	// is ambiguous — a race, §5.5/§6.3).
	RacyWith []*parallel.InternalEdge
}

// ResolveInitial resolves an @pre initial node for shared global gid in the
// interval (pid, prelogIdx): which other process's edge supplied the value
// (§6.3's cross-process data dependence). Returns nil when the value came
// from initialization (no prior writer).
func (c *Controller) ResolveInitial(pid, prelogIdx, gid int) *CrossRef {
	// Find this interval's record span (cached emulation result if the
	// interval was already emulated; the whole book otherwise).
	res := c.Result(pid, prelogIdx)
	span := len(c.Log.Books[pid].Records)
	if res != nil {
		span = prelogIdx + res.RecordsConsumed
	}
	// The reading edges of this process overlapping the interval.
	var readEdge *parallel.InternalEdge
	edges := c.pgraph.EdgesOf(pid)
	for i := range edges {
		if e := &edges[i]; e.EndRec >= prelogIdx && e.StartRec <= span && e.Reads.Has(gid) {
			readEdge = e
			break
		}
	}
	if readEdge == nil {
		// The read may predate any sync op; use the process's first edge
		// overlapping the interval.
		for i := range edges {
			if e := &edges[i]; e.EndRec >= prelogIdx && e.StartRec <= span {
				readEdge = e
				break
			}
		}
	}
	if readEdge == nil {
		return nil
	}
	writer := c.pgraph.LastWriterBefore(readEdge, gid)

	// Collect unordered (racy) writers too.
	var racy []*parallel.InternalEdge
	for i := range c.pgraph.Edges {
		cand := &c.pgraph.Edges[i]
		if cand.PID == pid || !cand.Writes.Has(gid) {
			continue
		}
		if c.pgraph.Simultaneous(cand, readEdge) {
			racy = append(racy, cand)
		}
	}

	if writer == nil && len(racy) == 0 {
		return nil
	}
	ref := &CrossRef{Racy: len(racy) > 0, RacyWith: racy}
	if writer != nil {
		ref.PID = writer.PID
		ref.Edge = writer
		ref.PrelogIdx = c.IntervalContaining(writer.PID, writer.EndRec)
	} else {
		ref.PID = racy[0].PID
		ref.Edge = racy[0]
		ref.PrelogIdx = c.IntervalContaining(racy[0].PID, racy[0].EndRec)
	}
	return ref
}

// PrefetchNeighbors warms the interval cache around (pid, prelogIdx): the
// preceding and following sibling intervals in the process's book, the
// innermost enclosing interval, and the cross-process writer intervals
// supplying shared values the focus interval reads — the intervals a user
// inspecting a node is most likely to query next. The emulations fan out
// across the shared worker pool and the call blocks until the cache is
// warm; queries racing with the warm-up are safe and see each entry at
// most once. Errors are swallowed — prefetch is purely advisory.
func (c *Controller) PrefetchNeighbors(pid, prelogIdx int) {
	targets := c.neighborIntervals(pid, prelogIdx)
	c.pool.ForEach(len(targets), func(i int) {
		_, _ = c.interval(targets[i][0], targets[i][1])
	})
}

// maxPrefetch bounds one prefetch fan-out; beyond it the speculative work
// would evict more cache than it warms.
const maxPrefetch = 16

// neighborIntervals computes the prefetch target list for an interval, in
// deterministic priority order, capped at maxPrefetch and excluding the
// focus interval itself.
func (c *Controller) neighborIntervals(pid, prelogIdx int) [][2]int {
	if pid < 0 || pid >= len(c.Log.Books) {
		return nil
	}
	var out [][2]int
	seen := map[[2]int]bool{{pid, prelogIdx}: true}
	add := func(p, idx int) {
		k := [2]int{p, idx}
		if idx >= 0 && p >= 0 && !seen[k] && len(out) < maxPrefetch {
			seen[k] = true
			out = append(out, k)
		}
	}

	// Sibling intervals: the prelogs immediately before and after.
	prev, next := -1, -1
	for i, r := range c.Log.Books[pid].Records {
		if r.Kind != logging.RecPrelog {
			continue
		}
		switch {
		case i < prelogIdx:
			prev = i
		case i > prelogIdx && next < 0:
			next = i
		}
	}
	add(pid, prev)
	add(pid, next)

	// The innermost interval enclosing this one (the caller's e-block).
	add(pid, c.enclosingInterval(pid, prelogIdx))

	// Cross-process writers: for each shared variable read by this
	// process's edges overlapping the interval, the interval of the edge
	// that supplied the value (§6.3's likely next hop).
	res := c.Result(pid, prelogIdx)
	span := len(c.Log.Books[pid].Records)
	if res != nil {
		span = prelogIdx + res.RecordsConsumed
	}
	edges := c.pgraph.EdgesOf(pid)
	for i := range edges {
		e := &edges[i]
		if e.EndRec < prelogIdx || e.StartRec > span {
			continue
		}
		e.Reads.ForEach(func(gid int) {
			if ref := c.ResolveInitial(pid, prelogIdx, gid); ref != nil {
				add(ref.PID, ref.PrelogIdx)
			}
		})
	}
	return out
}

// enclosingInterval returns the record index of the innermost prelog whose
// interval strictly contains the prelog at prelogIdx, or -1 for an
// outermost interval.
func (c *Controller) enclosingInterval(pid, prelogIdx int) int {
	var stack []int
	for i, r := range c.Log.Books[pid].Records {
		if i == prelogIdx {
			if len(stack) > 0 {
				return stack[len(stack)-1]
			}
			return -1
		}
		switch r.Kind {
		case logging.RecPrelog:
			stack = append(stack, i)
		case logging.RecPostlog:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	return -1
}

// Flowback walks backward from a node through data/control/sync edges up to
// the given depth, returning the reachable slice of the graph in
// breadth-first order — the fragment the debugger presents (§3.2.3's
// "portion of the dynamic graph").
func Flowback(g *dynpdg.Graph, from dynpdg.NodeID, depth int) []*dynpdg.Node {
	type item struct {
		id dynpdg.NodeID
		d  int
	}
	seen := map[dynpdg.NodeID]bool{from: true}
	queue := []item{{from, 0}}
	var out []*dynpdg.Node
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		out = append(out, g.Nodes[it.id])
		if it.d == depth {
			continue
		}
		var deps []dynpdg.NodeID
		for _, e := range g.Incoming(it.id) {
			if e.Kind == dynpdg.EdgeFlow {
				continue
			}
			deps = append(deps, e.From)
		}
		sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
		for _, d := range deps {
			if !seen[d] {
				seen[d] = true
				queue = append(queue, item{d, it.d + 1})
			}
		}
	}
	return out
}

// RenderFragment prints a flowback fragment as an indented dependence tree
// rooted at the node, the textual analogue of the paper's inverted-tree
// display.
func RenderFragment(g *dynpdg.Graph, root dynpdg.NodeID, depth int) string {
	var sb strings.Builder
	var walk func(id dynpdg.NodeID, d int, via string, seen map[dynpdg.NodeID]bool)
	walk = func(id dynpdg.NodeID, d int, via string, seen map[dynpdg.NodeID]bool) {
		n := g.Nodes[id]
		fmt.Fprintf(&sb, "%s", strings.Repeat("  ", d))
		if via != "" {
			fmt.Fprintf(&sb, "<-%s- ", via)
		}
		fmt.Fprintf(&sb, "n%d [%s]", n.ID, n.Label)
		if n.Stmt != ast.NoStmt {
			fmt.Fprintf(&sb, " s%d", n.Stmt)
		}
		if n.HasValue {
			fmt.Fprintf(&sb, " = %d", n.Value)
		}
		sb.WriteByte('\n')
		if d == depth || seen[id] {
			return
		}
		seen[id] = true
		for _, e := range g.Incoming(id) {
			if e.Kind == dynpdg.EdgeFlow {
				continue
			}
			walk(e.From, d+1, e.Kind.String(), seen)
		}
	}
	walk(root, 0, "", map[dynpdg.NodeID]bool{})
	return sb.String()
}

// Summary describes the halted execution for the debugger's banner.
func (c *Controller) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "execution: %d process(es), %d log record(s)\n",
		c.NumProcs(), totalRecords(c.Log))
	switch {
	case c.Failure != nil:
		loc, ok := c.Art.Stmts.Where(c.Failure.Stmt)
		if !ok {
			loc = "?"
		}
		fmt.Fprintf(&sb, "halted: process %d failed at s%d (%s): %s\n",
			c.Failure.PID, c.Failure.Stmt, loc, c.Failure.Msg)
	case c.Deadlock:
		sb.WriteString("halted: deadlock\n")
	default:
		sb.WriteString("completed normally\n")
	}
	return sb.String()
}

func totalRecords(pl *logging.ProgramLog) int {
	n := 0
	for _, b := range pl.Books {
		n += b.Len()
	}
	return n
}
