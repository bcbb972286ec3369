package parallel

import (
	"fmt"
	"sort"
	"strings"

	"ppd/internal/ast"
	"ppd/internal/bitset"
	"ppd/internal/logging"
)

// This file keeps the pointer-based graph builder the flat Builder
// replaced: one heap Event, InternalEdge, pending node, []int clock and
// pair of *bitset.Set per synchronization node, resolved through maps
// keyed by gsn and by *refEvent. It is the reference
// TestFlatGraphMatchesReference compares every flat graph against.

type refEvent struct {
	ID    EventID
	PID   int
	Idx   int
	Op    logging.SyncOp
	Kind  logging.Kind
	Obj   int
	Stmt  ast.StmtID
	Gsn   uint64
	From  EventID
	Clock []int
}

type refEdge struct {
	ID       int
	PID      int
	Start    EventID
	End      EventID
	Reads    *bitset.Set
	Writes   *bitset.Set
	StartRec int
	EndRec   int
}

type refGraph struct {
	Events    []*refEvent
	Edges     []*refEdge
	SyncEdges [][2]EventID
	byProc    [][]EventID
	nProcs    int
}

type refPending struct {
	ev      *refEvent
	prev    *refEvent
	edge    *refEdge
	fromGsn uint64
	fromEv  *refEvent
}

type refProc struct {
	events    []*refEvent
	edges     []*refEdge
	fromEv    []*refEvent
	last      *refEvent
	startRec  int
	unclocked []*refPending
	queued    bool
}

type refBuilder struct {
	nShared      int
	procs        []*refProc
	queue        []*refProc
	byGsn        map[uint64]*refEvent
	waiting      map[uint64][]*refPending
	clockWaiters map[*refEvent][]*refProc
	clockLen     int
}

// refBuild is the reference batch build: every book fed in pid order
// through the pointer builder, then renumbered into global IDs.
func refBuild(pl *logging.ProgramLog, nShared int) *refGraph {
	b := &refBuilder{
		nShared:      nShared,
		byGsn:        make(map[uint64]*refEvent),
		waiting:      make(map[uint64][]*refPending),
		clockWaiters: make(map[*refEvent][]*refProc),
		clockLen:     pl.NumProcs(),
	}
	for pid, book := range pl.Books {
		for ri, r := range book.Records {
			switch r.Kind {
			case logging.RecSync, logging.RecStart, logging.RecExit:
				b.add(pid, ri, r)
			}
		}
	}
	return b.finish(pl.NumProcs())
}

func (b *refBuilder) proc(pid int) *refProc {
	for pid >= len(b.procs) {
		b.procs = append(b.procs, &refProc{})
	}
	return b.procs[pid]
}

func (b *refBuilder) add(pid, ri int, r *logging.Record) {
	p := b.proc(pid)
	ev := &refEvent{
		ID: EventID(len(p.events)), PID: pid, Idx: len(p.events),
		Op: r.Op, Kind: r.Kind, Obj: r.Obj, Stmt: r.Stmt, Gsn: r.Gsn, From: -1,
	}
	rset, wset := bitset.New(b.nShared), bitset.New(b.nShared)
	for _, v := range r.Reads {
		if v >= 0 && v < b.nShared {
			rset.Add(v)
		}
	}
	for _, v := range r.Writes {
		if v >= 0 && v < b.nShared {
			wset.Add(v)
		}
	}
	var prevEnd EventID = -1
	if p.last != nil {
		prevEnd = p.last.ID
	}
	edge := &refEdge{
		ID: len(p.edges), PID: pid, Start: prevEnd, End: ev.ID,
		Reads: rset, Writes: wset, StartRec: p.startRec, EndRec: ri,
	}
	pe := &refPending{ev: ev, prev: p.last, edge: edge}
	p.startRec = ri + 1
	p.last = ev
	p.events = append(p.events, ev)
	p.edges = append(p.edges, edge)
	p.fromEv = append(p.fromEv, nil)

	if r.Gsn != 0 {
		if ws, ok := b.waiting[r.Gsn]; ok {
			delete(b.waiting, r.Gsn)
			for _, w := range ws {
				w.fromGsn = 0
				w.fromEv = ev
				b.enqueue(b.procs[w.ev.PID])
			}
		}
		b.byGsn[r.Gsn] = ev
	}
	if r.FromGsn != 0 {
		if src, ok := b.byGsn[r.FromGsn]; ok {
			pe.fromEv = src
		} else {
			pe.fromGsn = r.FromGsn
			b.waiting[r.FromGsn] = append(b.waiting[r.FromGsn], pe)
		}
	}
	p.unclocked = append(p.unclocked, pe)
	b.enqueue(p)
	b.drain()
}

func (b *refBuilder) enqueue(p *refProc) {
	if !p.queued && len(p.unclocked) > 0 {
		p.queued = true
		b.queue = append(b.queue, p)
	}
}

func (b *refBuilder) drain() {
	for len(b.queue) > 0 {
		p := b.queue[len(b.queue)-1]
		b.queue = b.queue[:len(b.queue)-1]
		p.queued = false
		for len(p.unclocked) > 0 {
			pe := p.unclocked[0]
			if pe.fromGsn != 0 {
				break
			}
			if pe.fromEv != nil && pe.fromEv.Clock == nil {
				b.clockWaiters[pe.fromEv] = append(b.clockWaiters[pe.fromEv], p)
				break
			}
			p.unclocked = p.unclocked[1:]
			b.assign(pe)
		}
	}
}

func (b *refBuilder) assign(pe *refPending) {
	pid := pe.ev.PID
	clock := make([]int, max(b.clockLen, pid+1))
	if pe.prev != nil {
		copy(clock, pe.prev.Clock)
	}
	if pe.fromEv != nil {
		for i, v := range pe.fromEv.Clock {
			clock[i] = max(clock[i], v)
		}
	}
	clock[pid]++
	pe.ev.Clock = clock
	b.procs[pid].fromEv[pe.ev.Idx] = pe.fromEv
	if ws, ok := b.clockWaiters[pe.ev]; ok {
		delete(b.clockWaiters, pe.ev)
		for _, q := range ws {
			b.enqueue(q)
		}
	}
}

// finish flushes (unmatched sources dropped, cycle nodes zero-clocked) and
// renumbers process-local IDs into the contiguous global ID space.
func (b *refBuilder) finish(nProcs int) *refGraph {
	for _, p := range b.procs {
		for _, pe := range p.unclocked {
			pe.fromGsn = 0
		}
		b.enqueue(p)
	}
	b.drain()
	for _, p := range b.procs {
		for _, pe := range p.unclocked {
			pe.ev.Clock = make([]int, b.clockLen)
			p.fromEv[pe.ev.Idx] = pe.fromEv
		}
		p.unclocked = nil
	}
	g := &refGraph{nProcs: nProcs, byProc: make([][]EventID, nProcs)}
	for pid, p := range b.procs {
		evOff := EventID(len(g.Events))
		edgeOff := len(g.Edges)
		for _, ev := range p.events {
			ev.ID += evOff
			g.Events = append(g.Events, ev)
			g.byProc[pid] = append(g.byProc[pid], ev.ID)
		}
		for _, e := range p.edges {
			e.ID += edgeOff
			if e.Start >= 0 {
				e.Start += evOff
			}
			e.End += evOff
			g.Edges = append(g.Edges, e)
		}
	}
	for _, p := range b.procs {
		for idx, ev := range p.events {
			if src := p.fromEv[idx]; src != nil {
				ev.From = src.ID
				g.SyncEdges = append(g.SyncEdges, [2]EventID{src.ID, ev.ID})
			}
		}
	}
	return g
}

// String is the reference rendering of Fig 6.1's layout.
func (g *refGraph) String() string {
	var sb strings.Builder
	for pid := 0; pid < g.nProcs; pid++ {
		fmt.Fprintf(&sb, "P%d:", pid+1)
		for _, eid := range g.byProc[pid] {
			ev := g.Events[eid]
			switch ev.Kind {
			case logging.RecStart:
				fmt.Fprintf(&sb, " start")
			case logging.RecExit:
				fmt.Fprintf(&sb, " exit")
			default:
				fmt.Fprintf(&sb, " %s", ev.Op)
			}
			if ev.From >= 0 {
				fmt.Fprintf(&sb, "(<-n%d)", ev.From)
			}
		}
		sb.WriteByte('\n')
	}
	edges := append([][2]EventID(nil), g.SyncEdges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i][0] < edges[j][0] })
	for _, e := range edges {
		a, b := g.Events[e[0]], g.Events[e[1]]
		kind := b.Op.String()
		if b.Kind == logging.RecStart {
			kind = "start"
		}
		fmt.Fprintf(&sb, "sync: P%d.%s -> P%d.%s\n", a.PID+1, a.Op, b.PID+1, kind)
	}
	return sb.String()
}
