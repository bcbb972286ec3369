// Package stream is the online analysis pipeline: it consumes an
// execution's record stream *while the program runs* and performs the
// debugging phase's graph construction and race detection incrementally —
// the event-stream-module architecture DeWiz and MAD argue for, grafted
// onto the paper's §6 machinery.
//
// The pipeline is three stages. The incremental graph builder
// (parallel.NewStreamBuilder) turns the record stream into clocked
// synchronization nodes and internal edges. The frontier detector (this
// package's Pipeline) checks each completed edge against the *unretired*
// edges indexed per shared variable, then retires edges the sliding
// happens-before frontier has passed: once every live process's latest
// event happens-after an edge's end node, no future edge can be
// simultaneous with it (any future edge's start chains through some live
// process's current latest event), so the edge leaves the index and its
// memory — the pipeline's high-water mark is bounded by the frontier
// width, not the run length. The early-abort stage is the caller's: the
// OnRace callback fires the moment a race is classified, and
// ppd.Options.StopAtFirstRace uses it to context-cancel the VM.
//
// Soundness of arrival-time checking: edges are checked when they
// complete, against every unretired edge. A retired edge r cannot race
// with a later-arriving edge e: at r's retirement, e's process either had
// events (its then-latest event L satisfied r.end → L, and e.start is L
// or later in program order, so r → e), or did not exist yet (its start
// chains through a live ancestor's spawn, which happens-after that
// ancestor's then-latest event, hence after r.end). Every cross-process
// conflicting pair is therefore classified exactly once, and the final
// race set equals the batch detector's.
//
// Oracle equivalence: after renumbering the (few) edges retained by
// races into the global ID space — global IDs are contiguous per process
// in pid order, so (PID, local index) order is global order — the
// canonicalized result is byte-identical to race.Detect over the
// batch-built graph of the same records, at any batch size. The golden
// gate TestOnlineRacesByteIdentical and FuzzStreamBatches pin this.
package stream

import (
	"fmt"

	"ppd/internal/bitset"
	"ppd/internal/logging"
	"ppd/internal/obs"
	"ppd/internal/parallel"
	"ppd/internal/race"
)

// Config parameterizes a Pipeline.
type Config struct {
	// NShared is the GlobalID universe size (len(Program.Globals)).
	NShared int

	// Mask is the static conflict mask (analysis.ConflictMatrix.Mask):
	// per-variable buckets outside it are never materialized. nil scans
	// everything. Must match the batch oracle's mask for equivalence.
	Mask *bitset.Set

	// VarNames resolves GlobalIDs to source names in race reports
	// (parallel.Graph.VarNames's counterpart).
	VarNames []string

	// OnRace, when non-nil, fires once per classified race the moment it
	// is found, while the program is still running. It runs on the
	// pipeline's feeding goroutine; implementations should be quick or
	// hand off.
	OnRace func(RaceEvent)

	// Sink receives the pipeline counters (stream.batches,
	// stream.frontier.highwater, stream.events.retired,
	// stream.races.online, stream.pairs, stream.mask.pruned), folded in
	// once at Finish. nil disables observation.
	Sink *obs.Sink
}

// RaceEvent is one race as reported online. It carries process IDs and
// per-process internal-edge indices — identifiers that are stable from the
// moment of detection (global edge IDs only exist after the run ends).
type RaceEvent struct {
	Kind  race.Conflict
	PID1  int // 0-based process ID of the first (canonically ordered) edge
	Edge1 int // index of that edge within its process
	PID2  int
	Edge2 int
	Vars  []int
	Names []string
}

// String renders the event for live monitors.
func (ev RaceEvent) String() string {
	vars := fmt.Sprintf("%v", ev.Vars)
	if len(ev.Names) == len(ev.Vars) && len(ev.Names) > 0 {
		vars = ""
		for i, n := range ev.Names {
			if i > 0 {
				vars += ","
			}
			vars += n
		}
	}
	return fmt.Sprintf("%s race: P%d edge %d vs P%d edge %d on %s",
		ev.Kind, ev.PID1+1, ev.Edge1, ev.PID2+1, ev.Edge2, vars)
}

// Result is the pipeline's final output.
type Result struct {
	// Races is the canonical race set: deduped, renumbered into the
	// global ID space, sorted — byte-identical (via race.Report) to the
	// batch detector over the same records.
	Races []*race.Race

	Batches   int64 // record batches fed
	Events    int64 // synchronization nodes built
	Retired   int64 // edges retired by the frontier before the run ended
	Highwater int64 // max unretired edges at any point (the memory bound)
	Online    int64 // races classified online (pre-dedup count)
	Pairs     int64 // candidate pairs tested
	Pruned    int64 // per-edge variable touches skipped by the mask
}

// edgeRef names an internal edge by process and process-local index.
// Edge idx of a process ends at its node idx and starts at node idx-1
// (none for idx 0); the builder stores both while the edge is unretired.
type edgeRef struct{ pid, idx int32 }

// pairKey identifies a canonically-oriented cross-process edge pair.
type pairKey struct{ a, b edgeRef }

// procState is one process's frontier state. Its edges arrive in order, so
// the unretired ones are [retired, n): a FIFO that needs only cursors.
type procState struct {
	n       int  // edges (= nodes) delivered; the latest node is n-1
	retired int  // edges retired
	exited  bool // the process has logged its exit node
	// blocker is the live process whose latest node the head unretired
	// edge still waits for (-1 when nothing is unretired): the head is
	// re-tested only when the blocker advances.
	blocker int
}

// Pipeline is the frontier race detector. Not safe for concurrent use:
// Feed and Finish must come from one goroutine (the Tee serializes).
type Pipeline struct {
	cfg Config
	b   *parallel.Builder

	procs []procState

	readers [][]edgeRef // unretired reader edges per shared variable
	writers [][]edgeRef // unretired writer edges per shared variable

	// seen marks pairs that already produced races, so a pair sharing
	// several variables is classified once (the batch path classifies all
	// three kinds at first contact too, then dedups). Bounded by the race
	// count, not the pair count: ordered pairs never enter.
	seen  map[pairKey]bool
	races []*race.Race
	// kept holds the copies of the edges races refer to: the builder's
	// storage is released as the frontier passes.
	kept map[edgeRef]*parallel.InternalEdge

	width    int // unretired edges now
	result   *Result
	counters Result
	finished bool
}

// New returns a pipeline over cfg.
func New(cfg Config) *Pipeline {
	p := &Pipeline{
		cfg:     cfg,
		seen:    make(map[pairKey]bool),
		kept:    make(map[edgeRef]*parallel.InternalEdge),
		readers: make([][]edgeRef, cfg.NShared),
		writers: make([][]edgeRef, cfg.NShared),
	}
	p.b = parallel.NewStreamBuilder(cfg.NShared, p)
	return p
}

// Feed consumes one batch of records in generation order (see
// parallel.Builder's stream mode). The builder calls back into OnSync for
// every node whose clock becomes final.
func (p *Pipeline) Feed(batch []parallel.FeedRecord) {
	p.counters.Batches++
	p.b.Feed(batch)
}

// OnSync implements parallel.Observer: one completed synchronization node
// and the internal edge it terminates. Order matters: the edge is checked
// against the frontier *before* the node advances it — a frontier advanced
// first could retire edges this edge still races with.
func (p *Pipeline) OnSync(pid, idx int) {
	p.counters.Events++
	er := edgeRef{int32(pid), int32(idx)}
	edge := p.b.Edge(pid, idx)

	// Stage 1: check against the unretired index, mask-pruned.
	edge.Writes.ForEach(func(v int) {
		if p.cfg.Mask != nil && !p.cfg.Mask.Has(v) {
			p.counters.Pruned++
			return
		}
		p.checkAgainst(p.writers[v], er)
		p.checkAgainst(p.readers[v], er)
	})
	edge.Reads.ForEach(func(v int) {
		if p.cfg.Mask != nil && !p.cfg.Mask.Has(v) {
			p.counters.Pruned++
			return
		}
		p.checkAgainst(p.writers[v], er)
	})

	// Stage 2: join the frontier.
	p.insert(er, edge)

	// Stage 3: advance the frontier and retire what it passed.
	ps := &p.procs[pid]
	ps.n = idx + 1
	if p.b.Event(pid, idx).Kind == logging.RecExit {
		ps.exited = true
	}
	p.retire(pid)
}

// checkAgainst tests er against every edge in bucket (same-process pairs
// and already-classified pairs skip early).
func (p *Pipeline) checkAgainst(bucket []edgeRef, er edgeRef) {
	for _, other := range bucket {
		if other.pid == er.pid {
			continue
		}
		p.counters.Pairs++
		if !p.simultaneous(other, er) {
			continue
		}
		// Canonical orientation: (PID, local index) order is final global
		// ID order, since global IDs are contiguous per process in pid
		// order.
		a, b := other, er
		if a.pid > b.pid || (a.pid == b.pid && a.idx > b.idx) {
			a, b = b, a
		}
		key := pairKey{a, b}
		if p.seen[key] {
			continue
		}
		rs := race.CheckOrientedPair(p.b.Edge(int(a.pid), int(a.idx)), p.b.Edge(int(b.pid), int(b.idx)), p.cfg.VarNames)
		if len(rs) == 0 {
			continue // unreachable via a shared bucket, kept for safety
		}
		ea, eb := p.keep(a), p.keep(b)
		for _, r := range rs {
			r.E1, r.E2 = ea, eb
		}
		p.seen[key] = true
		p.races = append(p.races, rs...)
		p.counters.Online += int64(len(rs))
		if p.cfg.OnRace != nil {
			for _, r := range rs {
				p.cfg.OnRace(RaceEvent{
					Kind: r.Kind,
					PID1: r.E1.PID, Edge1: r.E1.ID,
					PID2: r.E2.PID, Edge2: r.E2.ID,
					Vars: r.Vars, Names: r.Names,
				})
			}
		}
	}
}

// keep returns the pipeline's own copy of a race-retained edge.
func (p *Pipeline) keep(r edgeRef) *parallel.InternalEdge {
	if e, ok := p.kept[r]; ok {
		return e
	}
	e := *p.b.Edge(int(r.pid), int(r.idx))
	e.Reads, e.Writes = *e.Reads.Clone(), *e.Writes.Clone()
	p.kept[r] = &e
	return &e
}

// simultaneous is Definition 6.1 over edge refs: neither edge's end node
// happens-before the other's start node. Cross-process edges never share
// nodes, so the batch EdgeHB's same-node shortcut cannot apply; edge 0 of
// a process has no start node, and nothing precedes it.
func (p *Pipeline) simultaneous(x, y edgeRef) bool {
	if y.idx > 0 && p.b.HappensBefore(int(x.pid), int(x.idx), int(y.pid), int(y.idx-1)) {
		return false
	}
	if x.idx > 0 && p.b.HappensBefore(int(y.pid), int(y.idx), int(x.pid), int(x.idx-1)) {
		return false
	}
	return true
}

// insert adds er to the per-variable index; its process's unretired range
// grows by the caller's advance.
func (p *Pipeline) insert(er edgeRef, e *parallel.InternalEdge) {
	e.Writes.ForEach(func(v int) {
		if p.cfg.Mask == nil || p.cfg.Mask.Has(v) {
			p.writers[v] = append(p.writers[v], er)
		}
	})
	e.Reads.ForEach(func(v int) {
		if p.cfg.Mask == nil || p.cfg.Mask.Has(v) {
			p.readers[v] = append(p.readers[v], er)
		}
	})
	for int(er.pid) >= len(p.procs) {
		p.procs = append(p.procs, procState{blocker: -1})
	}
	p.width++
	if int64(p.width) > p.counters.Highwater {
		p.counters.Highwater = int64(p.width)
	}
}

// retire runs after process pid's latest node advanced: an edge retires
// once its end node happens-before every live process's latest node
// (processes spawned later chain through a live ancestor's future spawn,
// so they cannot reach back behind the cut). Only heads that pid was
// blocking can have become retirable — plus pid's own head, if the new
// edge is it — so only those are re-tested, in pid order.
func (p *Pipeline) retire(pid int) {
	for q := range p.procs {
		qs := &p.procs[q]
		if qs.blocker == pid || (q == pid && qs.blocker < 0) {
			p.retireHead(q)
		}
	}
}

// retireHead pops process q's unretired edges while the head is behind
// the frontier, records what blocks the next head, and releases the
// builder's nodes no unretired edge needs (the head's start node and
// later stay).
func (p *Pipeline) retireHead(q int) {
	qs := &p.procs[q]
	qs.blocker = -1
	start := qs.retired
	for qs.retired < qs.n {
		if r := p.blockerOf(q, qs.retired); r >= 0 {
			qs.blocker = r
			break
		}
		p.remove(edgeRef{int32(q), int32(qs.retired)})
		qs.retired++
		p.width--
		p.counters.Retired++
	}
	if qs.retired > start {
		p.b.Release(q, qs.retired-1)
	}
}

// blockerOf returns a live process other than q that has not advanced
// past q's node idx, or -1 when every one has.
func (p *Pipeline) blockerOf(q, idx int) int {
	for r := range p.procs {
		rs := &p.procs[r]
		if r == q || rs.n == 0 || rs.exited {
			continue
		}
		if !p.b.HappensBefore(q, idx, r, rs.n-1) {
			return r
		}
	}
	return -1
}

// remove deletes er from the per-variable index (swap-remove; bucket
// order is not part of the contract — the final set is canonicalized).
func (p *Pipeline) remove(er edgeRef) {
	del := func(bucket []edgeRef) []edgeRef {
		for i, x := range bucket {
			if x == er {
				bucket[i] = bucket[len(bucket)-1]
				return bucket[:len(bucket)-1]
			}
		}
		return bucket
	}
	e := p.b.Edge(int(er.pid), int(er.idx))
	e.Writes.ForEach(func(v int) {
		if p.cfg.Mask == nil || p.cfg.Mask.Has(v) {
			p.writers[v] = del(p.writers[v])
		}
	})
	e.Reads.ForEach(func(v int) {
		if p.cfg.Mask == nil || p.cfg.Mask.Has(v) {
			p.readers[v] = del(p.readers[v])
		}
	})
}

// Finish flushes the builder, renumbers the race-retained edges into the
// global ID space, canonicalizes, and folds the counters into the sink.
// Idempotent; must be called after the last Feed (the Tee's Close
// guarantees the ordering).
func (p *Pipeline) Finish() *Result {
	if p.finished {
		return p.result
	}
	p.finished = true
	p.b.Flush()

	counts := p.b.Counts()
	off := make([]int, len(counts))
	for i := 1; i < len(counts); i++ {
		off[i] = off[i-1] + counts[i-1]
	}
	for _, e := range p.kept {
		o := off[e.PID]
		e.ID += o
		if e.Start >= 0 {
			e.Start += parallel.EventID(o)
		}
		e.End += parallel.EventID(o)
	}
	p.counters.Races = race.Canonicalize(p.races)
	p.result = &p.counters

	if sink := p.cfg.Sink; sink != nil {
		sink.Counter("stream.batches").Add(p.counters.Batches)
		sink.Counter("stream.frontier.highwater").Add(p.counters.Highwater)
		sink.Counter("stream.events.retired").Add(p.counters.Retired)
		sink.Counter("stream.races.online").Add(p.counters.Online)
		sink.Counter("stream.pairs").Add(p.counters.Pairs)
		sink.Counter("stream.mask.pruned").Add(p.counters.Pruned)
	}
	return p.result
}

// Retained returns the clock-row entries and set words the pipeline holds:
// the builder's node storage plus the copies of race-retained edges. It
// is the live state the frontier bounds.
func (p *Pipeline) Retained() int {
	n := p.b.Retained()
	for _, e := range p.kept {
		n += 2 * bitset.Words(e.Reads.Len())
	}
	return n
}
