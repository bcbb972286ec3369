package parallel

import (
	"slices"

	"ppd/internal/ast"
	"ppd/internal/bitset"
	"ppd/internal/logging"
)

// FeedRecord is the streamable projection of one log record: the fields
// the graph builder needs, detached from the logging arena so the record
// itself may be recycled the moment the tap returns (see
// logging.Book.SetTap). RecIdx is the record's index within its process's
// book, counting every record kind — the builder uses it for the
// StartRec/EndRec interval bounds, so callers must number prelog records
// too, not just the sync-relevant kinds they forward.
type FeedRecord struct {
	PID     int
	RecIdx  int
	Kind    logging.Kind
	Op      logging.SyncOp
	Obj     int
	Stmt    ast.StmtID
	Gsn     uint64
	FromGsn uint64
	Reads   []int
	Writes  []int
}

// Observer receives a stream-mode builder's output in causal
// (clock-assignment) order: one callback per synchronization node — node
// idx of process pid, which ends that process's internal edge idx — fired
// the moment the node's vector clock is final. The callee reads the node
// through the Builder (Event, Edge, HappensBefore) and tells it, through
// Release, which nodes it no longer needs.
type Observer interface {
	OnSync(pid, idx int)
}

// nodeRef names a node by process and process-local index. In byGsn a
// negative pid marks a released source whose clock row moved to the side
// slab: idx is then the side row.
type nodeRef struct{ pid, idx int32 }

var noNode = nodeRef{-1, -1}

// A pending node waits for nothing, for a record with its FromGsn to
// arrive, or for its (resolved) source node's clock.
const (
	waitNone uint8 = iota
	waitGsn
	waitClock
)

// nodeState is a node's builder-private bookkeeping.
type nodeState struct {
	wait uint8
	// next links the node into the chain it waits in: a gsn's waiting
	// list, or its source node's clock waiters.
	next nodeRef
	// head and tail of the nodes waiting for this node's clock.
	wHead, wTail nodeRef
}

// chain is a FIFO of nodes linked through nodeState.next.
type chain struct{ head, tail nodeRef }

// builderProc is one process's build state and node storage. Nodes
// [lo, n) are stored, node i at slot i-lo of every column; nodes
// [clocked, n) are pending, so the pending FIFO is a cursor, not a list.
type builderProc struct {
	base     int // global ID of the process's node 0 (retain mode; 0 in stream mode)
	lo       int // local index of storage slot 0
	keep     int // the observer released the nodes below keep (stream mode)
	n        int // nodes created
	clocked  int // nodes whose clocks are final
	startRec int // record index where the open internal edge began
	queued   bool

	ev    []Event
	ed    []InternalEdge
	st    []nodeState
	clk   []uint32 // stride Builder.stride
	words []uint64 // 2*Builder.nw per node: the read set, then the write set
}

// Builder constructs the parallel dynamic graph incrementally from a
// stream of records — the §6.1 build as an online event-stream module. Two
// modes share every step of the construction:
//
//   - Retain mode (Build): the columns are windows of the graph's own
//     arrays, sized exactly from the log and with every set carved up
//     front, so the finished graph is the builder's storage — no copy, no
//     per-node allocation.
//   - Stream mode (NewStreamBuilder): nodes are handed to an Observer as
//     soon as their vector clocks are final. Each process's columns grow
//     by doubling and are compacted as the observer releases nodes, so
//     memory is bounded by the synchronization frontier, not the run
//     length. Stream mode requires the feed to be in generation order
//     (the order records were appended across all books — exactly what a
//     logging tap observes); the only forward reference the VM ever emits
//     is a spawned process's start node arriving one record before its
//     OpSpawn source, which the builder holds briefly.
//
// Clocks follow one recurrence (clock = join(predecessor, source) + own
// tick), so feeding the same records in any order that respects
// per-process sequencing yields identical clocks.
type Builder struct {
	nShared int
	nw      int // words per read or write set
	stride  int // clock row length
	retain  bool
	obs     Observer

	procs []builderProc
	queue []int32 // processes with potentially-assignable pending heads

	// byGsn maps a source event's gsn to its node. Retain mode keeps every
	// gsn. Stream mode keeps only gsns a future record can still reference
	// — see retireSources for the per-op consumption rules.
	byGsn map[uint64]nodeRef

	// waiting holds the nodes whose FromGsn has no source yet. In stream
	// mode only a spawn's start node ever waits, and only for one record.
	waiting map[uint64]chain

	// semPending tracks, per semaphore object, the byGsn entry of its
	// remembered 0→1 V (stream mode): the VM clears or consumes it at the
	// next operation on the same semaphore, so the previous entry dies
	// when a new P or V on the object arrives.
	semPending map[int]uint64

	// ephemeral is the byGsn entry (a recv's gsn) that only the
	// immediately following record can reference (the unblock edge the VM
	// appends in the same step); it is dropped unconsumed otherwise.
	ephemeral uint64

	// side holds the clock rows of byGsn sources whose nodes were released
	// (stream mode: an old V on a semaphore can outlive its process's
	// frontier); sideFree lists its reusable rows.
	side     []uint32
	sideFree []int32
}

// streamStride is a stream-mode builder's initial clock row length; rows
// widen by doubling as processes appear.
const streamStride = 4

// streamCap is the node capacity a stream-mode process's columns start
// with; they grow by doubling from there.
const streamCap = 16

// compactMin is the fewest released nodes a process compacts away at
// once, so short-lived frontiers do not copy on every release.
const compactMin = 32

// NewStreamBuilder returns a stream-mode builder reporting to obs; see
// the Builder doc for the feed-order requirement and memory bound.
func NewStreamBuilder(nShared int, obs Observer) *Builder {
	return &Builder{
		nShared:    nShared,
		nw:         bitset.Words(nShared),
		stride:     streamStride,
		obs:        obs,
		byGsn:      make(map[uint64]nodeRef),
		waiting:    make(map[uint64]chain),
		semPending: make(map[int]uint64),
	}
}

func syncKind(k logging.Kind) bool {
	return k == logging.RecSync || k == logging.RecStart || k == logging.RecExit
}

// Build constructs the graph from an execution's logs. nShared is the size
// of the GlobalID universe (for the read/write sets). It counts each
// book's synchronization records, allocates the graph's columns once at
// their exact sizes, and walks the books in pid order straight into a
// retain-mode Builder whose per-process columns are windows of them —
// global IDs are contiguous per process in pid order, so each node lands
// at its final ID as it arrives.
func Build(pl *logging.ProgramLog, nShared int) *Graph {
	nProcs := pl.NumProcs()
	g := &Graph{Log: pl, procOff: make([]int, nProcs+1), nProcs: nProcs, nShared: nShared}
	gsns := 0
	for pid, book := range pl.Books {
		n := 0
		for _, r := range book.Records {
			if syncKind(r.Kind) {
				n++
				if r.Gsn != 0 {
					gsns++
				}
			}
		}
		g.procOff[pid+1] = g.procOff[pid] + n
	}
	total := g.procOff[nProcs]
	b := &Builder{
		nShared: nShared,
		nw:      bitset.Words(nShared),
		stride:  nProcs,
		retain:  true,
		procs:   make([]builderProc, nProcs),
		byGsn:   make(map[uint64]nodeRef, gsns),
		waiting: make(map[uint64]chain),
	}
	g.Events = make([]Event, total)
	g.Edges = make([]InternalEdge, total)
	g.clocks = make([]uint32, total*nProcs)
	st := make([]nodeState, total)
	for i := range st {
		st[i] = nodeState{next: noNode, wHead: noNode, wTail: noNode}
	}
	words := make([]uint64, total*2*b.nw)
	for pid := range b.procs {
		lo, hi := g.procOff[pid], g.procOff[pid+1]
		p := &b.procs[pid]
		p.base = lo
		p.ev = g.Events[lo:hi:hi]
		p.ed = g.Edges[lo:hi:hi]
		p.st = st[lo:hi:hi]
		p.clk = g.clocks[lo*nProcs : hi*nProcs : hi*nProcs]
		p.words = words[lo*2*b.nw : hi*2*b.nw : hi*2*b.nw]
		b.carve(p, 0)
	}
	for pid, book := range pl.Books {
		for ri, r := range book.Records {
			if !syncKind(r.Kind) {
				continue
			}
			fr := FeedRecord{
				PID: pid, RecIdx: ri, Kind: r.Kind, Op: r.Op, Obj: r.Obj, Stmt: r.Stmt,
				Gsn: r.Gsn, FromGsn: r.FromGsn, Reads: r.Reads, Writes: r.Writes,
			}
			b.add(&fr)
		}
	}
	b.Flush()
	// Sync edges in pid-then-record order.
	n := 0
	for i := range g.Events {
		if g.Events[i].From >= 0 {
			n++
		}
	}
	g.SyncEdges = make([][2]EventID, 0, n)
	for i := range g.Events {
		if from := g.Events[i].From; from >= 0 {
			g.SyncEdges = append(g.SyncEdges, [2]EventID{from, EventID(i)})
		}
	}
	return g
}

// proc returns (creating if needed) the state for pid. Only stream mode
// meets new processes: it gives each columns for streamCap nodes and
// widens the clock rows when a process outgrows them.
func (b *Builder) proc(pid int) *builderProc {
	for pid >= len(b.procs) {
		b.procs = append(b.procs, builderProc{
			ev:    make([]Event, 0, streamCap),
			ed:    make([]InternalEdge, 0, streamCap),
			st:    make([]nodeState, 0, streamCap),
			clk:   make([]uint32, 0, streamCap*b.stride),
			words: make([]uint64, 0, streamCap*2*b.nw),
		})
	}
	if pid >= b.stride {
		s := b.stride
		for pid >= s {
			s *= 2
		}
		b.restride(s)
	}
	return &b.procs[pid]
}

// restride widens every stored clock row (and side row) to stride s; the
// new entries are zero, which is what a clock that has not heard from a
// process holds.
func (b *Builder) restride(s int) {
	widen := func(rows []uint32) []uint32 {
		n := len(rows) / b.stride
		out := make([]uint32, n*s)
		for i := 0; i < n; i++ {
			copy(out[i*s:], rows[i*b.stride:(i+1)*b.stride])
		}
		return out
	}
	for i := range b.procs {
		b.procs[i].clk = widen(b.procs[i].clk)
	}
	b.side = widen(b.side)
	b.stride = s
}

// row returns node idx's clock row (the node must be stored).
func (p *builderProc) row(idx, stride int) []uint32 {
	lo := (idx - p.lo) * stride
	return p.clk[lo : lo+stride : lo+stride]
}

func (b *Builder) row(r nodeRef) []uint32 {
	if r.pid < 0 {
		return b.side[int(r.idx)*b.stride : int(r.idx+1)*b.stride]
	}
	return b.procs[r.pid].row(int(r.idx), b.stride)
}

func (b *Builder) state(r nodeRef) *nodeState {
	p := &b.procs[r.pid]
	return &p.st[int(r.idx)-p.lo]
}

// push returns the storage slot of p's next node. Build sized the columns
// for the whole log, so a retain-mode slot already exists; a stream-mode
// one is appended, zeroed, to every column.
func (b *Builder) push(p *builderProc) int {
	if b.retain {
		return p.n
	}
	p.ev = append(p.ev, Event{})
	p.ed = append(p.ed, InternalEdge{})
	p.st = append(p.st, nodeState{next: noNode, wHead: noNode, wTail: noNode})
	p.clk = growZero(p.clk, b.stride)
	old := p.words
	p.words = growZero(p.words, 2*b.nw)
	slot := len(p.ev) - 1
	if cap(p.words) != cap(old) {
		b.carve(p, 0) // the arena moved: re-point every stored set
	} else {
		b.carve(p, slot)
	}
	return slot
}

// carve points the read/write sets of p's slots from..end at their words
// (cap == len, so a set can never grow into its neighbour).
func (b *Builder) carve(p *builderProc, from int) {
	w := b.nw
	for i := from; i < len(p.ed); i++ {
		lo := 2 * w * i
		p.ed[i].Reads = bitset.Over(p.words[lo:lo+w:lo+w], b.nShared)
		p.ed[i].Writes = bitset.Over(p.words[lo+w:lo+2*w:lo+2*w], b.nShared)
	}
}

// growZero extends s by n zero elements, growing its array by doubling.
func growZero[T uint32 | uint64](s []T, n int) []T {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// setBits adds the in-universe variables of vars to the set stored in ws.
func setBits(ws []uint64, vars []int, n int) {
	for _, v := range vars {
		if uint(v) < uint(n) {
			ws[v>>6] |= 1 << (uint(v) & 63)
		}
	}
}

// Feed consumes one batch of records. Batch boundaries are free: the
// builder's output is determined by the record sequence alone.
func (b *Builder) Feed(batch []FeedRecord) {
	for i := range batch {
		b.add(&batch[i])
	}
}

// add ingests one record: sync-relevant kinds become nodes and edges,
// everything else only advances the record index (via RecIdx, which the
// caller carries for every record).
func (b *Builder) add(fr *FeedRecord) {
	if !syncKind(fr.Kind) {
		return
	}
	p := b.proc(fr.PID)
	idx := p.n
	slot := b.push(p)
	id := EventID(p.base + idx)
	p.ev[slot] = Event{
		ID: id, PID: fr.PID, Idx: idx, Op: fr.Op, Kind: fr.Kind,
		Obj: fr.Obj, Stmt: fr.Stmt, Gsn: fr.Gsn, From: -1,
	}
	e := &p.ed[slot]
	e.ID, e.PID, e.Start, e.End = int(id), fr.PID, id-1, id
	if idx == 0 {
		e.Start = -1
	}
	e.StartRec, e.EndRec = p.startRec, fr.RecIdx
	lo := 2 * b.nw * slot
	setBits(p.words[lo:lo+b.nw], fr.Reads, b.nShared)
	setBits(p.words[lo+b.nw:lo+2*b.nw], fr.Writes, b.nShared)
	p.n++
	p.startRec = fr.RecIdx + 1
	self := nodeRef{int32(fr.PID), int32(idx)}

	// In stream mode, the previous recv-gsn entry is only referenceable by
	// this very record (the unblock the VM appends in the same step).
	eph := b.ephemeral
	b.ephemeral = 0

	// Register this node as a causal source.
	if fr.Gsn != 0 {
		if ch, ok := b.waiting[fr.Gsn]; ok {
			// Forward reference (a spawn's start node arrived first):
			// resolve it now; in stream mode the gsn is consumed and never
			// enters byGsn.
			delete(b.waiting, fr.Gsn)
			for w := ch.head; w != noNode; {
				next := b.state(w).next
				b.resolve(w, self)
				w = next
			}
			if b.retain {
				b.byGsn[fr.Gsn] = self
			}
		} else if b.retain || sourceOp(fr) {
			b.setSource(fr.Gsn, self)
		}
	}

	// Resolve this node's causal source.
	if fr.FromGsn != 0 {
		if src, ok := b.byGsn[fr.FromGsn]; ok {
			b.resolve(self, src)
			if !b.retain {
				b.dropSource(fr.FromGsn)
				if fr.FromGsn == eph {
					eph = 0
				}
			}
		} else {
			st := b.state(self)
			st.wait = waitGsn
			ch, ok := b.waiting[fr.FromGsn]
			if !ok {
				ch.head = self
			} else {
				b.state(ch.tail).next = self
			}
			ch.tail = self
			b.waiting[fr.FromGsn] = ch
		}
	}

	if !b.retain {
		b.retireSources(fr, eph)
	}
	b.enqueue(fr.PID)
	b.drain()
}

// resolve makes src node w's causal source: a clocked source's row is
// joined into w's now, an unclocked one gets w as a clock waiter.
func (b *Builder) resolve(w, src nodeRef) {
	st := b.state(w)
	st.wait = waitNone
	st.next = noNode
	if b.retain {
		p := &b.procs[w.pid]
		p.ev[int(w.idx)-p.lo].From = EventID(b.procs[src.pid].base + int(src.idx))
	}
	if src.pid >= 0 && int(src.idx) >= b.procs[src.pid].clocked {
		st.wait = waitClock
		ss := b.state(src)
		if ss.wHead == noNode {
			ss.wHead = w
		} else {
			b.state(ss.wTail).next = w
		}
		ss.wTail = w
	} else {
		join(b.row(w), b.row(src))
	}
	b.enqueue(int(w.pid))
}

func join(dst, src []uint32) {
	for i, v := range src {
		dst[i] = max(dst[i], v)
	}
}

// setSource records node r as the source for gsn (stream mode frees a
// side row the entry replaces).
func (b *Builder) setSource(gsn uint64, r nodeRef) {
	if old, ok := b.byGsn[gsn]; ok && old.pid < 0 {
		b.sideFree = append(b.sideFree, old.idx)
	}
	b.byGsn[gsn] = r
}

// dropSource deletes gsn's byGsn entry, freeing its side row if any.
func (b *Builder) dropSource(gsn uint64) {
	if old, ok := b.byGsn[gsn]; ok {
		if old.pid < 0 {
			b.sideFree = append(b.sideFree, old.idx)
		}
		delete(b.byGsn, gsn)
	}
}

// sourceOp reports whether a record's gsn can appear as a later record's
// FromGsn (stream mode only inserts those into byGsn): a V (the §6.2.1
// pendingV pairing and the direct handoff), a send (consumed by the
// matching recv), a recv (consumed by the unblock record the VM appends in
// the same step), and a spawn (consumed by the child's start node, which
// in generation order actually precedes it and is handled by the waiting
// map). P and unblock gsns are never referenced.
func sourceOp(fr *FeedRecord) bool {
	if fr.Kind != logging.RecSync {
		return false
	}
	switch fr.Op {
	case logging.OpV, logging.OpSend, logging.OpRecv, logging.OpSpawn:
		return true
	}
	return false
}

// retireSources drops byGsn entries no future record can reference,
// keeping the map bounded by live synchronization state (per-semaphore
// pending Vs, in-flight channel messages) instead of run length. eph is
// the previous record's ephemeral entry if this record did not consume it.
func (b *Builder) retireSources(fr *FeedRecord, eph uint64) {
	if eph != 0 {
		b.dropSource(eph)
	}
	if fr.Kind != logging.RecSync {
		return
	}
	switch fr.Op {
	case logging.OpV:
		// The VM remembers at most one pending V per semaphore; a new V on
		// the same object replaces or clears it.
		if old := b.semPending[fr.Obj]; old != 0 && old != fr.Gsn {
			b.dropSource(old)
		}
		b.semPending[fr.Obj] = fr.Gsn
	case logging.OpP:
		// Any completed P on the object consumed or cleared the pending V.
		if old := b.semPending[fr.Obj]; old != 0 {
			b.dropSource(old)
			delete(b.semPending, fr.Obj)
		}
	case logging.OpRecv, logging.OpSpawn:
		// Referenceable only by the immediately following record (unblock)
		// or an already-arrived start node (spawn, removed on use above).
		if _, ok := b.byGsn[fr.Gsn]; ok {
			b.ephemeral = fr.Gsn
		}
	}
}

// enqueue schedules a process for clock assignment.
func (b *Builder) enqueue(pid int) {
	p := &b.procs[pid]
	if !p.queued && p.clocked < p.n {
		p.queued = true
		b.queue = append(b.queue, int32(pid))
	}
}

// drain assigns clocks to every currently-assignable pending node,
// cascading through processes a fresh clock unblocks.
func (b *Builder) drain() {
	for len(b.queue) > 0 {
		pid := int(b.queue[len(b.queue)-1])
		b.queue = b.queue[:len(b.queue)-1]
		p := &b.procs[pid]
		p.queued = false
		for p.clocked < p.n && p.st[p.clocked-p.lo].wait == waitNone {
			b.assign(pid)
		}
	}
}

// assign finishes the head pending node of pid: its row, which already
// holds its source's clock, joins the in-process predecessor's and ticks;
// nodes waiting for this clock join it in turn, then the node is
// published.
func (b *Builder) assign(pid int) {
	p := &b.procs[pid]
	idx := p.clocked
	row := p.row(idx, b.stride)
	if idx > 0 {
		join(row, p.row(idx-1, b.stride))
	}
	row[pid]++
	p.clocked++
	st := &p.st[idx-p.lo]
	for w := st.wHead; w != noNode; {
		ws := b.state(w)
		next := ws.next
		ws.wait, ws.next = waitNone, noNode
		join(b.row(w), row)
		b.enqueue(int(w.pid))
		w = next
	}
	st.wHead, st.wTail = noNode, noNode
	if b.obs != nil {
		b.obs.OnSync(pid, idx)
	}
}

// Flush resolves every node still resolvable: FromGsn references with no
// matching source are dropped (no sync edge), and any nodes still
// unclocked afterwards sit on a causal cycle (corrupt log) and get zero
// clocks. Stream-mode observers see the stragglers now.
func (b *Builder) Flush() {
	for pid := range b.procs {
		p := &b.procs[pid]
		for i := p.clocked; i < p.n; i++ {
			if st := &p.st[i-p.lo]; st.wait == waitGsn {
				st.wait, st.next = waitNone, noNode
			}
		}
		b.enqueue(pid)
	}
	b.drain()
	for pid := range b.procs {
		p := &b.procs[pid]
		for p.clocked < p.n {
			idx := p.clocked
			clear(p.row(idx, b.stride))
			p.clocked++
			if b.obs != nil {
				b.obs.OnSync(pid, idx)
			}
		}
	}
	clear(b.waiting)
}

// Counts returns the per-process node counts so far (a process's node
// and edge counts are equal) — the renumbering base a streaming consumer
// needs to map process-local IDs to the global ID space the batch build
// assigns (global IDs are contiguous per process in pid order).
func (b *Builder) Counts() []int {
	out := make([]int, len(b.procs))
	for i := range b.procs {
		out[i] = b.procs[i].n
	}
	return out
}

// Event returns node idx of process pid. Stream mode: the node must not
// have been released.
func (b *Builder) Event(pid, idx int) Event {
	p := &b.procs[pid]
	return p.ev[idx-p.lo]
}

// Edge returns process pid's internal edge idx (the edge node idx ends).
// The pointer, and the sets it carries, address the builder's storage:
// they are valid until the next Feed or Release, and an edge kept longer
// must be copied (with Clone'd sets).
func (b *Builder) Edge(pid, idx int) *InternalEdge {
	p := &b.procs[pid]
	return &p.ed[idx-p.lo]
}

// HappensBefore reports whether node i1 of process p1 happened before
// node i2 of process p2 (both clocked and stored).
func (b *Builder) HappensBefore(p1, i1, p2, i2 int) bool {
	if p1 == p2 && i1 == i2 {
		return false
	}
	return clockBefore(b.procs[p1].row(i1, b.stride), p1, b.procs[p2].row(i2, b.stride))
}

// Release tells a stream-mode builder the observer no longer needs
// process pid's nodes below idx. The builder keeps the process's latest
// clocked node (the next node's predecessor) regardless, and compacts the
// process's columns once the released prefix outweighs what is stored
// after it. A byGsn source in the released prefix keeps its clock row in
// the side slab.
func (b *Builder) Release(pid, idx int) {
	p := &b.procs[pid]
	idx = min(idx, p.clocked-1)
	if idx <= p.keep {
		return
	}
	p.keep = idx
	dead := p.keep - p.lo
	if dead < compactMin || dead < p.n-p.keep {
		return
	}
	for gsn, r := range b.byGsn {
		if int(r.pid) == pid && int(r.idx) < p.keep {
			b.byGsn[gsn] = b.toSide(b.row(r))
		}
	}
	p.ev = p.ev[:copy(p.ev, p.ev[dead:])]
	p.ed = p.ed[:copy(p.ed, p.ed[dead:])]
	p.st = p.st[:copy(p.st, p.st[dead:])]
	p.clk = p.clk[:copy(p.clk, p.clk[dead*b.stride:])]
	p.words = p.words[:copy(p.words, p.words[dead*2*b.nw:])]
	p.lo = p.keep
	b.carve(p, 0)
}

// toSide copies a clock row into the side slab and returns its reference.
func (b *Builder) toSide(row []uint32) nodeRef {
	var r int32
	if n := len(b.sideFree); n > 0 {
		r = b.sideFree[n-1]
		b.sideFree = b.sideFree[:n-1]
	} else {
		r = int32(len(b.side) / b.stride)
		b.side = growZero(b.side, b.stride)
	}
	copy(b.side[int(r)*b.stride:], row)
	return nodeRef{-1, r}
}

// Retained returns the clock-row entries and set words the builder holds
// (its columns' capacity plus the side slab): the stream-mode memory the
// frontier bounds.
func (b *Builder) Retained() int {
	n := cap(b.side)
	for i := range b.procs {
		n += cap(b.procs[i].clk) + cap(b.procs[i].words)
	}
	return n
}
