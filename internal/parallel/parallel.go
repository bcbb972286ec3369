// Package parallel builds the parallel dynamic program dependence graph
// (§6.1) from per-process logs: synchronization nodes, synchronization
// edges (§6.2), and internal edges — one per executed synchronization unit,
// carrying the shared-variable READ/WRITE sets recorded at run time.
//
// It implements Lamport's happened-before partial order (§6's "→" operator)
// with vector clocks, giving O(P) comparisons between events, and exposes
// the ordering queries race detection (package race) and the controller's
// cross-process flowback need.
//
// The graph is flat: events and internal edges are value slices indexed by
// their IDs, vector clocks are rows of one []uint32 slab, and the
// read/write sets of all edges are carved from one word arena. Building it
// allocates per graph, not per event.
package parallel

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ppd/internal/ast"
	"ppd/internal/bitset"
	"ppd/internal/logging"
)

// EventID identifies a synchronization node globally: its index in
// Graph.Events.
type EventID int

// Event is one synchronization node of the parallel dynamic graph. Its
// vector clock is Graph.Clock(ID).
type Event struct {
	ID   EventID
	PID  int
	Idx  int // position among the process's sync events
	Op   logging.SyncOp
	Kind logging.Kind // RecSync, RecStart, or RecExit
	Obj  int
	Stmt ast.StmtID
	Gsn  uint64

	// From is the causal source event (synchronization edge tail), or -1.
	From EventID
}

// InternalEdge is one internal edge: the events of a process between two
// consecutive synchronization nodes, with the shared variables read and
// written during it (§6.3's READ_SET/WRITE_SET). Edge i ends at event i, so
// an edge's ID equals its End.
type InternalEdge struct {
	ID       int
	PID      int
	Start    EventID // the sync node the edge begins at (-1 before RecStart)
	End      EventID // the sync node that terminated the edge
	Reads    bitset.Set
	Writes   bitset.Set
	StartRec int // record index in the process's book where the edge begins
	EndRec   int
}

// Graph is the parallel dynamic graph of one execution. Global IDs are
// contiguous per process in pid order: process pid owns the events and
// edges [procOff[pid], procOff[pid+1]).
type Graph struct {
	Log    *logging.ProgramLog
	Events []Event
	Edges  []InternalEdge

	// VarNames optionally names each shared variable (indexed by
	// GlobalID); when set, race reports print names instead of raw IDs.
	VarNames []string

	// SyncEdges lists (from, to) event pairs (§6.2).
	SyncEdges [][2]EventID

	clocks  []uint32 // event i's vector clock is row i, stride nProcs
	procOff []int
	nProcs  int
	nShared int
}

// Clock returns event id's vector clock: one entry per process, a row of
// the graph's clock slab (callers must not modify it).
func (g *Graph) Clock(id EventID) []uint32 {
	lo := int(id) * g.nProcs
	return g.clocks[lo : lo+g.nProcs : lo+g.nProcs]
}

// clockBefore is happened-before between two clock rows of equal length:
// a, a node of process pid, precedes b.
func clockBefore(a []uint32, pid int, b []uint32) bool {
	return a[pid] <= b[pid] && !slices.Equal(a, b)
}

// HappensBefore reports whether event a happened before event b (§6.1's
// n1 → n2 via vector clocks).
func (g *Graph) HappensBefore(a, b EventID) bool {
	if a == b {
		return false
	}
	return clockBefore(g.Clock(a), g.Events[a].PID, g.Clock(b))
}

// EdgeHB implements §6.1's edge ordering: e1 → e2 iff n1 → n2 where n1 is
// e1's end node and n2 is e2's start node. A process's first edge has no
// start node; its events are ordered only through the process's own chain.
func (g *Graph) EdgeHB(e1, e2 *InternalEdge) bool {
	if e2.Start < 0 {
		return false // nothing precedes a process's initial edge
	}
	if e1.End == e2.Start {
		return true // same node: e1 flows directly into e2
	}
	return g.HappensBefore(e1.End, e2.Start)
}

// Simultaneous implements Definition 6.1: neither edge ordered before the
// other.
func (g *Graph) Simultaneous(e1, e2 *InternalEdge) bool {
	return !g.EdgeHB(e1, e2) && !g.EdgeHB(e2, e1)
}

// EdgesOf returns the internal edges of one process, in order: a sub-slice
// of Edges (O(1) — it sits on the controller's cross-process resolution
// path).
func (g *Graph) EdgesOf(pid int) []InternalEdge {
	if pid < 0 || pid >= g.nProcs {
		return nil
	}
	lo, hi := g.procOff[pid], g.procOff[pid+1]
	return g.Edges[lo:hi:hi]
}

// eventsOf returns the events of one process, in order.
func (g *Graph) eventsOf(pid int) []Event {
	lo, hi := g.procOff[pid], g.procOff[pid+1]
	return g.Events[lo:hi:hi]
}

// NumProcs returns the number of processes.
func (g *Graph) NumProcs() int { return g.nProcs }

// NumShared returns the shared-variable universe size.
func (g *Graph) NumShared() int { return g.nShared }

// LastWriterBefore finds, for a read of shared variable gid on edge e, the
// most recent internal edge of another process that wrote gid and happened
// before e — the §6.3 cross-process data dependence. Returns nil when no
// ordered writer exists (the value came from initialization or a race).
func (g *Graph) LastWriterBefore(e *InternalEdge, gid int) *InternalEdge {
	var best *InternalEdge
	for i := range g.Edges {
		cand := &g.Edges[i]
		if cand.ID == e.ID || !cand.Writes.Has(gid) {
			continue
		}
		if !g.EdgeHB(cand, e) {
			continue
		}
		if best == nil || g.EdgeHB(best, cand) {
			best = cand
		}
	}
	return best
}

// String renders the graph in the style of Fig 6.1 for golden tests.
func (g *Graph) String() string {
	var sb strings.Builder
	for pid := 0; pid < g.nProcs; pid++ {
		fmt.Fprintf(&sb, "P%d:", pid+1)
		for _, ev := range g.eventsOf(pid) {
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
		a, b := &g.Events[e[0]], &g.Events[e[1]]
		fmt.Fprintf(&sb, "sync: P%d.%s -> P%d.%s\n", a.PID+1, a.Op, b.PID+1, opOrKind(b))
	}
	return sb.String()
}

func opOrKind(e *Event) string {
	if e.Kind == logging.RecStart {
		return "start"
	}
	return e.Op.String()
}
