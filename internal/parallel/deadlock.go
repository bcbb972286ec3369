package parallel

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"ppd/internal/ast"
	"ppd/internal/logging"
)

// Deadlock-cause analysis (§6: "The parallel dynamic graph can also help
// the user analyze the causes of deadlocks"). When execution ends with
// blocked processes, each blocked process's last logged state tells what it
// was waiting for; chaining "waits-for" dependencies through the objects'
// last-known holders exposes the cycle or the missing signal.

// BlockedProc describes one process that ended blocked.
type BlockedProc struct {
	PID    int
	Stmt   ast.StmtID // the blocking operation's site (from the exit record)
	Status int64      // logging.ExitBlocked* code
	Obj    int        // the semaphore/channel being waited on
	// LastOp is the last synchronization operation the process completed.
	LastOp  logging.SyncOp
	LastObj int
}

// DeadlockInfo summarizes a deadlocked (or failed-and-blocked) execution.
type DeadlockInfo struct {
	Blocked []BlockedProc
	// Holders maps a semaphore GlobalID to the PID that performed the most
	// recent P on it without a later V (a likely holder), or -1.
	Holders map[int]int
}

// AnalyzeDeadlock inspects the logs for processes that ended blocked (their
// final record is a RecExit flushed at halt rather than after a clean
// return — distinguished by the process's last sync op leaving it waiting).
// The analysis is heuristic in the way the paper intends: it presents the
// evidence (who blocked where, who last held what) for the user to read.
func (g *Graph) AnalyzeDeadlock() *DeadlockInfo {
	info := &DeadlockInfo{Holders: make(map[int]int)}

	// Track likely semaphore holders: last P without a subsequent V per
	// object, in gsn order (the execution order). The graph's events are
	// grouped by process, so a stable sort restores the global order.
	var evs []*Event
	for i := range g.Events {
		if ev := &g.Events[i]; ev.Kind == logging.RecSync && (ev.Op == logging.OpP || ev.Op == logging.OpV) {
			evs = append(evs, ev)
		}
	}
	slices.SortStableFunc(evs, func(a, b *Event) int { return cmp.Compare(a.Gsn, b.Gsn) })
	for _, e := range evs {
		switch e.Op {
		case logging.OpP:
			info.Holders[e.Obj] = e.PID
		case logging.OpV:
			if info.Holders[e.Obj] == e.PID {
				info.Holders[e.Obj] = -1
			}
		}
	}

	for pid, book := range g.Log.Books {
		if book.Len() == 0 {
			continue
		}
		last := book.Records[book.Len()-1]
		if last.Kind != logging.RecExit ||
			last.Value < logging.ExitBlockedSem || last.Value > logging.ExitBlockedRecv {
			continue
		}
		bp := BlockedProc{PID: pid, Stmt: last.Stmt, Status: last.Value, Obj: last.Obj}
		evs := g.eventsOf(pid)
		for i := len(evs) - 1; i >= 0; i-- {
			if ev := &evs[i]; ev.Kind == logging.RecSync {
				bp.LastOp = ev.Op
				bp.LastObj = ev.Obj
				break
			}
		}
		info.Blocked = append(info.Blocked, bp)
	}
	return info
}

// Report renders the analysis with resolved names.
func (d *DeadlockInfo) Report(globalName func(int) string, stmtText func(ast.StmtID) string) string {
	if len(d.Blocked) == 0 {
		return "no blocked processes\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d process(es) blocked at halt:\n", len(d.Blocked))
	for _, b := range d.Blocked {
		what := "?"
		switch b.Status {
		case logging.ExitBlockedSem:
			what = "P(" + globalName(b.Obj) + ")"
		case logging.ExitBlockedSend:
			what = "send on " + globalName(b.Obj)
		case logging.ExitBlockedRecv:
			what = "recv on " + globalName(b.Obj)
		}
		fmt.Fprintf(&sb, "  P%d blocked in %s", b.PID, what)
		if b.Stmt != ast.NoStmt {
			fmt.Fprintf(&sb, " at %s", stmtText(b.Stmt))
		}
		if b.LastOp != 0 {
			fmt.Fprintf(&sb, " (last completed sync: %s on %s)", b.LastOp, globalName(b.LastObj))
		}
		sb.WriteByte('\n')
	}
	objs := make([]int, 0, len(d.Holders))
	for obj, pid := range d.Holders {
		if pid >= 0 {
			objs = append(objs, obj)
		}
	}
	slices.Sort(objs)
	if len(objs) > 0 {
		sb.WriteString("likely held semaphores:\n")
	}
	for _, obj := range objs {
		fmt.Fprintf(&sb, "  %s last acquired by P%d and never released\n", globalName(obj), d.Holders[obj])
	}
	return sb.String()
}
