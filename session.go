package ppd

import (
	"context"
	"fmt"
	"io"
	"sync"

	"ppd/internal/controller"
	"ppd/internal/eblock"
)

// Session is a first-class debugging session: one compiled program, one
// logged execution, and the debugging-phase controller with its bounded
// emulation cache, behind a single closable handle. It is the public
// API's unit of work — `ppd serve` manages many of them concurrently —
// and it is context-aware: OpenSessionContext and Rerun honor
// cancellation, and Close releases the emulation cache deterministically
// instead of waiting for the collector.
//
// All methods are safe for concurrent use; queries on one session
// serialize on the session's lock (the underlying Controller is itself
// concurrent-safe, but serializing at the session boundary keeps a
// session's memory use bounded by one query at a time and makes Close
// linearizable with in-flight queries).
type Session struct {
	mu        sync.Mutex
	prog      *Program
	exec      *Execution
	closed    bool
	rerunning bool // a Rerun's logged run is in flight (outside mu)
}

// OpenSession compiles filename/src (through the persistent artifact
// cache when Options.CacheDir or PPD_CACHE_DIR is set), executes it
// logged, and returns the bundled session. The session is valid — and
// most useful — when the program failed or deadlocked; check Failed and
// Deadlocked. Close it when done.
func OpenSession(filename, src string, opts Options) (*Session, error) {
	return OpenSessionContext(context.Background(), filename, src, opts)
}

// OpenSessionContext is OpenSession honoring ctx: the logged run checks
// for cancellation once per scheduling slice, and a cancelled open
// returns ctx's error.
func OpenSessionContext(ctx context.Context, filename, src string, opts Options) (*Session, error) {
	prog, err := CompileOpts(filename, src, eblock.DefaultConfig(), opts)
	if err != nil {
		return nil, err
	}
	exec, err := prog.RunLoggedContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	return &Session{prog: prog, exec: exec}, nil
}

// Program returns the compiled program the session runs.
func (s *Session) Program() *Program { return s.prog }

// Execution returns the session's current logged execution. The returned
// handle is the lower-level phase API; it stays valid until the next
// Rerun or Close replaces or releases it.
func (s *Session) Execution() *Execution {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exec
}

// Failed returns the runtime failure that halted the session's execution,
// or nil. It stays answerable after Close.
func (s *Session) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exec.Failed()
}

// Deadlocked reports whether the session's execution ended with blocked
// processes. It stays answerable after Close.
func (s *Session) Deadlocked() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exec.Deadlocked()
}

// Races runs (memoized) race detection over the session's execution.
func (s *Session) Races() ([]*Race, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	return s.exec.Races(), nil
}

// RaceReport renders the detected races with variable names. The report
// is byte-identical to the one the same (source, seed, quantum) produces
// through the Program/Execution API — the serving daemon's acceptance
// contract rides on this.
func (s *Session) RaceReport() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrSessionClosed
	}
	return s.exec.RaceReport(), nil
}

// Vet runs (memoized) static analysis over the session's program.
func (s *Session) Vet() (*VetResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	return s.prog.Vet(), nil
}

// Controller exposes the debugging-phase coordinator for flowback
// queries (Graph, FocusInterval, PrefetchNeighbors, ...).
func (s *Session) Controller() (*Controller, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	return s.exec.Controller(), nil
}

// FocusInterval returns the interval index a debugging session on pid
// naturally starts from (the halted or last interval).
func (s *Session) FocusInterval(pid int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return -1, ErrSessionClosed
	}
	return s.exec.Controller().FocusInterval(pid)
}

// Flowback builds (or serves from the emulation cache) the dynamic graph
// of pid's focus interval and renders the backward dependence fragment of
// its focus node to the given depth — the paper's inverted-tree display
// as a string.
func (s *Session) Flowback(pid, depth int) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrSessionClosed
	}
	ctl := s.exec.Controller()
	g, _, err := ctl.CurrentGraph(pid)
	if err != nil {
		return "", err
	}
	return controller.RenderFragment(g, ctl.FocusNode(g, pid).ID, depth), nil
}

// WhatIf re-executes the e-block interval at record prelogIdx of process
// pid with the named global overridden and reports what changed (§5.7).
// prelogIdx < 0 selects the process's focus interval.
func (s *Session) WhatIf(pid, prelogIdx int, global string, value int64) (*WhatIfResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if prelogIdx < 0 {
		idx, err := s.exec.Controller().FocusInterval(pid)
		if err != nil {
			return nil, err
		}
		prelogIdx = idx
	}
	return s.exec.WhatIf(pid, prelogIdx, global, value)
}

// ReplayTo rebuilds process pid's global state as of record index idx
// (exclusive) by folding the log's prelogs, postlogs, and shared prelogs —
// §5.7's state restoration. Restoration is checkpointed: the controller
// snapshots the fold state every K = 64 records
// (controller.DefaultCheckpointEvery), so stepping a restore cursor
// through a long log costs O(K) per query instead of O(run prefix).
func (s *Session) ReplayTo(pid, idx int) (*StateSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	return s.exec.Controller().ReplayTo(pid, idx)
}

// WriteLog persists the execution's log in PPD's binary format.
func (s *Session) WriteLog(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	return s.exec.WriteLog(w)
}

// Stats snapshots the session's observability counters and timers across
// all three phases. It stays answerable after Close — teardown itself is
// observable (Close's cache release shows up as debug.cache.evictions),
// and the serving daemon folds a closing session's final snapshot into
// its /metrics aggregate.
func (s *Session) Stats() *Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exec.Stats()
}

// Rerun replaces the session's execution: the already-compiled program
// runs again under opts (typically a different Seed or Quantum — schedule
// exploration without recompiling), and the debugging-phase state of the
// previous execution, including its emulation cache, is released. The
// previous Execution handle stays readable but shares nothing with the
// session afterwards.
//
// The logged run happens outside the session lock, so queries (and the
// serving daemon's /metrics scrape) keep answering from the current
// execution while the new one is produced; the swap at the end is what
// serializes. A second Rerun while one is in flight returns
// ErrSessionBusy instead of queueing, and a Close that lands mid-run
// wins: the finished run is discarded and Rerun returns ErrSessionClosed.
func (s *Session) Rerun(ctx context.Context, opts Options) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	if s.rerunning {
		s.mu.Unlock()
		return fmt.Errorf("%w: re-run already in flight", ErrSessionBusy)
	}
	s.rerunning = true
	s.mu.Unlock()

	exec, err := s.prog.RunLoggedContext(ctx, opts)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.rerunning = false
	if err != nil {
		return err
	}
	if s.closed {
		// Close won the race and already released the session's
		// debugging-phase memory; release the new execution's too.
		if exec.ctl != nil {
			exec.ctl.DropCache()
		}
		return ErrSessionClosed
	}
	if s.exec.ctl != nil {
		s.exec.ctl.DropCache()
	}
	s.exec = exec
	return nil
}

// StreamRaces is Rerun with the online analysis pipeline attached: the
// already-compiled program runs again under opts with Monitor forced on,
// fn (may be nil) receives each race as the frontier detector finds it —
// while the run is still producing records — and the returned StreamResult
// carries the final canonical race set plus the pipeline's counters. The
// final set is byte-identical (through race.Report) to what the batch
// detector computes from the same log.
//
// Concurrency mirrors Rerun exactly: the monitored run happens outside
// the session lock, a second run in flight returns ErrSessionBusy, and a
// Close that lands mid-run wins — the finished execution is discarded and
// StreamRaces returns ErrSessionClosed (fn may already have observed
// races by then; they were real).
func (s *Session) StreamRaces(ctx context.Context, opts Options, fn func(RaceEvent)) (*StreamResult, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if s.rerunning {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: re-run already in flight", ErrSessionBusy)
	}
	s.rerunning = true
	s.mu.Unlock()

	opts.Monitor = true
	opts.OnRace = fn
	exec, err := s.prog.RunLoggedContext(ctx, opts)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.rerunning = false
	if err != nil {
		return nil, err
	}
	if s.closed {
		if exec.ctl != nil {
			exec.ctl.DropCache()
		}
		return nil, ErrSessionClosed
	}
	if s.exec.ctl != nil {
		s.exec.ctl.DropCache()
	}
	s.exec = exec
	return exec.OnlineResult(), nil
}

// Close releases the session's debugging-phase memory: the controller's
// emulation cache is dropped (reported as debug.cache.evictions) and all
// further queries return ErrSessionClosed. Close is idempotent and safe
// to call concurrently with queries — it waits for the in-flight query
// and the loser of the race observes the closed state.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.exec.ctl != nil {
		s.exec.ctl.DropCache()
	}
	return nil
}
