// Package trace defines the fine-grained event stream the emulation package
// produces during the debugging phase (§3.2.1: "traces of every useful
// event"), and which live full-tracing mode produces during execution when
// PPD's incremental approach is disabled (the expensive baseline the paper
// argues against; experiments E1/E2 measure the difference).
//
// A trace is per-process and statement-structured: each executed statement
// instance opens with EvStmt, followed by the reads, writes, predicate
// outcomes, and call boundaries it produced. The dynamic-graph builder in
// package dynpdg consumes exactly this stream, either from a stored Buffer
// or event by event through a Buffer's Sink.
package trace

import (
	"fmt"
	"strings"

	"ppd/internal/ast"
	"ppd/internal/logging"
)

// EventKind discriminates trace events.
type EventKind uint8

// Trace event kinds.
const (
	EvStmt        EventKind = iota // begin statement instance (Stmt)
	EvRead                         // Var read with Value (space index of the executing function)
	EvWrite                        // Var written with Value
	EvPred                         // predicate outcome in Value (1/0)
	EvCallBegin                    // entering callee FuncIdx; Args hold the evaluated arguments
	EvCallEnd                      // leaving callee; Value = return value if HasValue
	EvCallSkipped                  // callee not re-executed: postlog substituted (§5.2); Value = return value if HasValue
	EvSync                         // synchronization operation (Op, Obj, Value)
	EvEnd                          // end of the traced interval
)

func (k EventKind) String() string {
	switch k {
	case EvStmt:
		return "stmt"
	case EvRead:
		return "read"
	case EvWrite:
		return "write"
	case EvPred:
		return "pred"
	case EvCallBegin:
		return "call"
	case EvCallEnd:
		return "ret"
	case EvCallSkipped:
		return "call-skipped"
	case EvSync:
		return "sync"
	case EvEnd:
		return "end"
	}
	return "?"
}

// Event is one trace entry.
type Event struct {
	Kind EventKind
	Stmt ast.StmtID // the statement this event belongs to

	Var      int   // EvRead/EvWrite: function-space variable index
	Idx      int   // EvRead/EvWrite on arrays: element index, else -1
	Value    int64 // read/written value, predicate outcome, return value
	HasValue bool  // EvCallEnd/EvCallSkipped: a value was returned

	FuncIdx int     // EvCallBegin/EvCallSkipped: callee function index
	Args    []int64 // EvCallBegin/EvCallSkipped: evaluated arguments

	Op  logging.SyncOp // EvSync
	Obj int            // EvSync: GlobalID of sem/chan
}

// Consumer receives trace events one at a time, in production order.
type Consumer interface {
	Consume(Event)
}

// Buffer accumulates events for one process (or one emulated interval).
type Buffer struct {
	PID    int
	Events []Event

	// Sink, when set, receives every appended event in place of Events:
	// an emulation streams its events into a consumer (the dynamic-graph
	// builder) and stores none. Full-trace mode leaves it nil.
	Sink Consumer
}

// Append adds an event, or hands it to Sink when one is set.
func (b *Buffer) Append(e Event) {
	if b.Sink != nil {
		b.Sink.Consume(e)
		return
	}
	b.Events = append(b.Events, e)
}

// Reset empties the buffer for reuse (keeping its capacity) and re-tags
// the PID — the pooled replay context recycles one buffer per emulation.
func (b *Buffer) Reset(pid int) {
	b.PID = pid
	b.Events = b.Events[:0]
}

// Len returns the number of events.
func (b *Buffer) Len() int { return len(b.Events) }

// SizeBytes estimates the encoded size of the trace (E2 metric), using the
// same accounting style as logging.SizeBytes.
func (b *Buffer) SizeBytes() int {
	n := 0
	for i := range b.Events {
		e := &b.Events[i]
		n += 1 + 4 + 4 + 4 + 8 // kind, stmt, var, idx, value
		n += 8 * len(e.Args)
	}
	return n
}

// String renders the trace for tests.
func (b *Buffer) String() string {
	var sb strings.Builder
	for i := range b.Events {
		e := &b.Events[i]
		fmt.Fprintf(&sb, "%s s%d", e.Kind, e.Stmt)
		switch e.Kind {
		case EvRead, EvWrite:
			fmt.Fprintf(&sb, " var%d", e.Var)
			if e.Idx >= 0 {
				fmt.Fprintf(&sb, "[%d]", e.Idx)
			}
			fmt.Fprintf(&sb, "=%d", e.Value)
		case EvPred:
			fmt.Fprintf(&sb, " =%d", e.Value)
		case EvCallBegin, EvCallSkipped:
			fmt.Fprintf(&sb, " f%d args=%v", e.FuncIdx, e.Args)
		case EvCallEnd:
			if e.HasValue {
				fmt.Fprintf(&sb, " =%d", e.Value)
			}
		case EvSync:
			fmt.Fprintf(&sb, " %s obj=%d", e.Op, e.Obj)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Program is a set of per-process traces (full-tracing mode).
type Program struct {
	Buffers []*Buffer
}

// BufferFor returns (creating if needed) the buffer for a PID.
func (p *Program) BufferFor(pid int) *Buffer {
	for len(p.Buffers) <= pid {
		p.Buffers = append(p.Buffers, &Buffer{PID: len(p.Buffers)})
	}
	return p.Buffers[pid]
}

// SizeBytes sums the per-process trace sizes.
func (p *Program) SizeBytes() int {
	n := 0
	for _, b := range p.Buffers {
		n += b.SizeBytes()
	}
	return n
}
