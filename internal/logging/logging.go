// Package logging defines the execution-phase log (§3.2.2, §5.1): prelogs,
// postlogs, the extra shared-variable prelogs of §5.5, and synchronization
// records. There is one log book per process (§5.6); the books are the only
// runtime artifact the debugging phase needs besides the static files.
//
// Log records are small by design — that is the paper's whole point. A
// prelog holds the values of the variables the e-block may read; a postlog
// holds the variables it may have written plus the return value; sync
// records hold the pairing information (global sequence numbers) from which
// the parallel dynamic graph reconstructs synchronization edges, plus the
// per-internal-edge shared READ/WRITE sets race detection consumes.
package logging

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"iter"
	"strings"

	"ppd/internal/ast"
	"ppd/internal/eblock"
)

// Value is a logged variable value: a scalar or an array snapshot.
type Value struct {
	Int int64
	Arr []int64 // non-nil for arrays (cloned at logging time)
}

// IsArray reports whether the value is an array snapshot.
func (v Value) IsArray() bool { return v.Arr != nil }

// Clone deep-copies the value.
func (v Value) Clone() Value {
	if v.Arr == nil {
		return v
	}
	arr := make([]int64, len(v.Arr))
	copy(arr, v.Arr)
	return Value{Arr: arr}
}

func (v Value) String() string {
	if v.Arr != nil {
		parts := make([]string, len(v.Arr))
		for i, x := range v.Arr {
			parts[i] = fmt.Sprintf("%d", x)
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	return fmt.Sprintf("%d", v.Int)
}

// VarVal is one logged (variable, value) binding.
type VarVal struct {
	Idx int // frame slot or GlobalID
	Val Value
}

// Pairs is a compact ordered list of variable bindings. Prelogs and
// postlogs are written on every e-block boundary, so their representation
// is a slice rather than a map: one allocation per record, cache-friendly
// iteration, and the keys are small dense integers anyway.
type Pairs []VarVal

// Len returns the number of bindings.
func (p Pairs) Len() int { return len(p) }

// Get looks up the value bound to idx.
func (p Pairs) Get(idx int) (Value, bool) {
	for i := range p {
		if p[i].Idx == idx {
			return p[i].Val, true
		}
	}
	return Value{}, false
}

// Set binds idx to v, replacing any existing binding.
func (p *Pairs) Set(idx int, v Value) {
	for i := range *p {
		if (*p)[i].Idx == idx {
			(*p)[i].Val = v
			return
		}
	}
	*p = append(*p, VarVal{Idx: idx, Val: v})
}

// All iterates the bindings in insertion order.
func (p Pairs) All() iter.Seq2[int, Value] {
	return func(yield func(int, Value) bool) {
		for i := range p {
			if !yield(p[i].Idx, p[i].Val) {
				return
			}
		}
	}
}

// Clone deep-copies the bindings.
func (p Pairs) Clone() Pairs {
	out := make(Pairs, len(p))
	for i := range p {
		out[i] = VarVal{Idx: p[i].Idx, Val: p[i].Val.Clone()}
	}
	return out
}

// Kind discriminates log records.
type Kind uint8

// Log record kinds.
const (
	RecPrelog   Kind = iota // e-block entry: USED values
	RecPostlog              // e-block exit: DEFINED globals + return value
	RecShPrelog             // sync-unit start: shared values that may be read
	RecSync                 // synchronization event
	RecStart                // process start (fromGsn = spawner's sync gsn)
	RecExit                 // process exit (flushes the last internal edge)
)

// NumKinds is the number of record kinds (for per-kind accounting arrays).
const NumKinds = 6

func (k Kind) String() string {
	switch k {
	case RecPrelog:
		return "prelog"
	case RecPostlog:
		return "postlog"
	case RecShPrelog:
		return "shprelog"
	case RecSync:
		return "sync"
	case RecStart:
		return "start"
	case RecExit:
		return "exit"
	}
	return "?"
}

// Exit statuses recorded in RecExit's Value field, so the debugging phase
// can tell how each process ended without the VM present.
const (
	ExitClean       int64 = 0
	ExitBlockedSem  int64 = 1
	ExitBlockedSend int64 = 2
	ExitBlockedRecv int64 = 3
	ExitFailed      int64 = 4
	ExitBreak       int64 = 5 // halted at a breakpoint while runnable
)

// SyncOp identifies the operation of a RecSync record.
type SyncOp uint8

// Synchronization operations.
const (
	OpP SyncOp = iota + 1
	OpV
	OpSend
	OpRecv
	OpUnblock // sender unblocked by a receiver taking its message
	OpSpawn
)

func (o SyncOp) String() string {
	switch o {
	case OpP:
		return "P"
	case OpV:
		return "V"
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpUnblock:
		return "unblock"
	case OpSpawn:
		return "spawn"
	}
	return "?"
}

// Record is one log entry. Which fields are meaningful depends on Kind.
// Records on the execution hot path are allocated through Book.NewRecord
// (arena-backed, recycled under a streaming sink); the zero value is a
// valid empty record either way.
type Record struct {
	Kind Kind

	// Block identifies the e-block for prelog/postlog records.
	Block eblock.ID

	// Stmt is the statement at which the record was generated (the sync
	// operation, the call site of a loop header, ...). ast.NoStmt for
	// function-entry prelogs.
	Stmt ast.StmtID

	// Locals binds frame slots to values (prelogs: parameters and, for loop
	// blocks, used locals; postlogs of loop blocks: defined locals).
	Locals Pairs

	// Globals binds GlobalIDs to values.
	Globals Pairs

	// Ret is the e-block's return value (function postlogs only).
	Ret *Value

	// --- RecSync / RecStart fields ---

	Op      SyncOp
	Obj     int    // GlobalID of the semaphore/channel; spawn: child PID
	Gsn     uint64 // global sequence number of this event
	FromGsn uint64 // causal source event (V for an unblocked/enabled P,
	// send for recv, recv for sender-unblock, spawn for child start)
	Value int64 // transferred value (send/recv), semaphore count after op,
	// or spawned function index (OpSpawn)

	// Reads/Writes are the shared variables (GlobalIDs) read/written on the
	// internal edge that this sync event terminates (§6.3-§6.4 READ_SET /
	// WRITE_SET). Present on RecSync, RecStart (empty) and RecExit.
	Reads  []int
	Writes []int

	// retBuf backs SetRet so postlog return values need no separate heap
	// allocation; Ret points at it when set through SetRet.
	retBuf Value
}

// SetRet records the return value in the record's inline buffer, avoiding
// the per-postlog *Value allocation of `r.Ret = &v`.
func (r *Record) SetRet(v Value) {
	r.retBuf = v
	r.Ret = &r.retBuf
}

// reset clears the record for reuse, keeping the capacity of its slice
// fields so a recycled record logs without allocating.
func (r *Record) reset() {
	locals, globals := r.Locals[:0], r.Globals[:0]
	reads, writes := r.Reads[:0], r.Writes[:0]
	*r = Record{Locals: locals, Globals: globals, Reads: reads, Writes: writes}
}

// Arena chunk sizes. Records, and the elements of pair bindings and edge
// sets, are carved from chunks that start small and double with each
// replacement up to a cap, so a process that logs little allocates little
// and a long run settles at the cap. A chunk is never grown, only replaced
// when full, so pointers into it stay valid for the log's lifetime.
const (
	recordChunkMin, recordChunkMax = 4, 128
	sliceChunkMin, sliceChunkMax   = 8, 512
)

// nextChunk is the capacity of the chunk replacing one of capacity last:
// double it within [lo, hi], but never less than need.
func nextChunk(last, need, lo, hi int) int {
	return max(need, min(max(2*last, lo), hi))
}

// take returns an empty slice with capacity for n elements: old when it is
// large enough (recycled records), otherwise a carve of exactly n from the
// arena chunk *a, which is replaced when fewer than n slots remain. A carve
// has cap == n, so an append beyond n reallocates instead of writing into
// the next carve.
func take[T any](old []T, a *[]T, n int) []T {
	if cap(old) >= n {
		return old[:0]
	}
	if cap(*a)-len(*a) < n {
		*a = make([]T, 0, nextChunk(cap(*a), n, sliceChunkMin, sliceChunkMax))
	}
	off := len(*a)
	*a = (*a)[:off+n]
	return (*a)[off : off : off+n]
}

// Book is one process's log, in generation order.
type Book struct {
	PID     int
	Records []*Record

	// arena is the current fixed-capacity allocation chunk for records;
	// pairArena and intArena are the same for Pairs and Reads/Writes
	// backing storage. They exist so the execution phase performs one
	// allocation per chunk instead of one (or more) per record.
	arena     []Record
	pairArena []VarVal
	intArena  []int

	// Streaming state: when stream is non-nil, Append encodes the record
	// into the per-book buffer immediately and recycles it via free, so a
	// long run retains encoded bytes instead of record structures. The
	// buffer is a plain append-grown []byte: one amortized append per
	// record, no per-field writer dispatch on the hot path.
	stream      *Stream
	enc         []byte
	streamed    int // records encoded so far
	streamStats Stats
	free        []*Record

	tap Tap // observes every record at Append time (may be nil)
}

// Tap observes every record the moment it is appended, before the book
// retains or recycles it — the hook the online analysis pipeline tees off
// of. idx is the record's index within the process's book. The record is
// only valid for the duration of the call: under a streaming sink it goes
// straight back on the freelist when Append returns (see SetStream), so a
// tap must copy any field it needs and must not hold the pointer.
type Tap func(pid, idx int, r *Record)

// NewRecord returns a zeroed record for this book, recycled from the
// freelist under a streaming sink or carved from the record arena.
func (b *Book) NewRecord() *Record {
	if n := len(b.free); n > 0 {
		r := b.free[n-1]
		b.free = b.free[:n-1]
		r.reset()
		return r
	}
	if len(b.arena) == cap(b.arena) {
		b.arena = make([]Record, 0, nextChunk(cap(b.arena), 1, recordChunkMin, recordChunkMax))
	}
	b.arena = b.arena[:len(b.arena)+1]
	return &b.arena[len(b.arena)-1]
}

// TakePairs returns an empty Pairs with capacity for n bindings, reusing
// old or carving from the book's pair arena (see take).
func (b *Book) TakePairs(old Pairs, n int) Pairs { return take(old, &b.pairArena, n) }

// TakeInts is TakePairs for a record's Reads/Writes edge sets.
func (b *Book) TakeInts(old []int, n int) []int { return take(old, &b.intArena, n) }

// Append adds a record. Under a streaming sink the record is encoded and
// recycled instead of retained. The tap, when set, sees the record first —
// before it is retained or recycled — so taps compose with the freelist:
// the tap call and the recycling are both inside Append, and the record is
// never on the freelist while a tap can still see it.
func (b *Book) Append(r *Record) {
	if b.tap != nil {
		b.tap(b.PID, b.Len(), r)
	}
	if b.stream == nil {
		b.Records = append(b.Records, r)
		return
	}
	before := len(b.enc)
	b.enc = appendRecord(b.enc, r)
	if int(r.Kind) < NumKinds {
		b.streamStats.Records[r.Kind]++
		b.streamStats.Bytes[r.Kind] += len(b.enc) - before
	}
	b.streamed++
	b.free = append(b.free, r)
}

// Len returns the number of records generated (retained or streamed).
func (b *Book) Len() int { return len(b.Records) + b.streamed }

// ProgramLog is the set of per-process books for one execution.
type ProgramLog struct {
	Books []*Book // indexed by PID

	stream *Stream // non-nil when records are streamed instead of retained
	tap    Tap     // inherited by every book (may be nil)
}

// NewProgramLog returns an empty program log.
func NewProgramLog() *ProgramLog { return &ProgramLog{} }

// Stream is an incremental log encoder: each record is encoded through the
// same varint codec as Write the moment it is produced, into a per-book
// buffer, so the execution phase retains compact encoded bytes instead of
// record structures (and can recycle the structures). CloseStream stitches
// the buffers into a byte stream identical to Write's output.
type Stream struct {
	w io.Writer
}

// SetStream switches the log into streaming mode over w. It must be called
// before any record is appended; books created afterwards inherit it.
//
// Retention rule: under a streaming sink a record survives only for the
// duration of its Append call — it is encoded into the per-book buffer and
// immediately recycled onto the freelist (NewRecord reuses the structure,
// including its Pairs and read/write slices, for a later record). Any
// consumer that needs the record beyond Append — the online analysis tee in
// particular — must attach via SetTap, which runs before the recycling, and
// must copy what it keeps. Arena recycling therefore stays safe with a tap
// attached: the freelist never holds a record a tap can still observe.
func (pl *ProgramLog) SetStream(w io.Writer) {
	pl.stream = &Stream{w: w}
	for _, b := range pl.Books {
		b.attachStream(pl.stream)
	}
}

// SetTap attaches a record tap to every book, current and future. Like
// SetStream it must be called before any record is appended. See Tap for
// the (non-)retention contract.
func (pl *ProgramLog) SetTap(t Tap) {
	pl.tap = t
	for _, b := range pl.Books {
		b.tap = t
	}
}

// Streamed reports whether records are being streamed rather than retained.
func (pl *ProgramLog) Streamed() bool { return pl.stream != nil }

func (b *Book) attachStream(s *Stream) {
	b.stream = s
}

// CloseStream writes the streamed log to the sink in Write's exact format
// (magic, book count, then each book's PID, record count, and records) and
// flushes. The resulting bytes equal what Write would have produced for
// the same records.
func (pl *ProgramLog) CloseStream() error {
	if pl.stream == nil {
		return fmt.Errorf("logging: CloseStream on a non-streamed log")
	}
	bw := bufio.NewWriter(pl.stream.w)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], magic)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	putUvarint(bw, uint64(len(pl.Books)))
	for _, b := range pl.Books {
		putUvarint(bw, uint64(b.PID))
		putUvarint(bw, uint64(b.streamed))
		if _, err := bw.Write(b.enc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// BookFor returns (creating if needed) the book for a PID.
func (pl *ProgramLog) BookFor(pid int) *Book {
	for len(pl.Books) <= pid {
		b := &Book{PID: len(pl.Books), tap: pl.tap}
		if pl.stream != nil {
			b.attachStream(pl.stream)
		}
		pl.Books = append(pl.Books, b)
	}
	return pl.Books[pid]
}

// NumProcs returns the number of processes that logged.
func (pl *ProgramLog) NumProcs() int { return len(pl.Books) }

// SizeBytes is the log's exact encoded record size (the E2 metric): the
// sum of every record's length under the binary codec, whether retained or
// already streamed. The Write/CloseStream output adds only the fixed
// header and per-book framing on top.
func (pl *ProgramLog) SizeBytes() int {
	return pl.Stats().TotalBytes()
}

// Stats is the log's per-record-kind accounting: how many records of each
// kind the execution phase generated and their encoded size. For a
// retained log it is computed by walking the records after the run — the
// paper's "small log" claim is measured without adding a single
// instruction to the logging hot path. For a streamed log it is the bytes
// actually encoded, folded in as each record passes through the codec.
type Stats struct {
	Records [NumKinds]int // record count per Kind
	Bytes   [NumKinds]int // encoded bytes per Kind
}

// TotalRecords sums the per-kind record counts.
func (s Stats) TotalRecords() int {
	n := 0
	for _, c := range s.Records {
		n += c
	}
	return n
}

// TotalBytes sums the per-kind encoded sizes (equals SizeBytes).
func (s Stats) TotalBytes() int {
	n := 0
	for _, c := range s.Bytes {
		n += c
	}
	return n
}

// Stats accounts the whole log by record kind.
func (pl *ProgramLog) Stats() Stats {
	var s Stats
	for _, b := range pl.Books {
		bs := b.Stats()
		for k := 0; k < NumKinds; k++ {
			s.Records[k] += bs.Records[k]
			s.Bytes[k] += bs.Bytes[k]
		}
	}
	return s
}

// Stats accounts one book by record kind. Retained records are measured
// through EncodedLen (the codec's exact arithmetic); streamed records were
// measured as they passed through the codec itself.
func (b *Book) Stats() Stats {
	s := b.streamStats
	for _, r := range b.Records {
		if int(r.Kind) < NumKinds {
			s.Records[r.Kind]++
			s.Bytes[r.Kind] += r.EncodedLen()
		}
	}
	return s
}

// EncodedLen is the record's exact size under the binary codec: the same
// varint arithmetic as writeRecord, so Stats never drifts from the bytes
// Write produces (pinned by TestStatsMatchEncodedBytes).
func (r *Record) EncodedLen() int {
	n := 1 + // kind byte
		uvarintLen(uint64(r.Block)) +
		uvarintLen(uint64(r.Stmt)) +
		1 + // op byte
		varintLen(int64(r.Obj)) +
		uvarintLen(r.Gsn) +
		uvarintLen(r.FromGsn) +
		varintLen(r.Value)
	n += pairsLen(r.Locals)
	n += pairsLen(r.Globals)
	n++ // has-ret byte
	if r.Ret != nil {
		n += valueLen(*r.Ret)
	}
	n += intSliceLen(r.Reads)
	n += intSliceLen(r.Writes)
	return n
}

func pairsLen(p Pairs) int {
	n := uvarintLen(uint64(len(p)))
	for i := range p {
		n += uvarintLen(uint64(p[i].Idx)) + valueLen(p[i].Val)
	}
	return n
}

func valueLen(v Value) int {
	if v.Arr == nil {
		return 1 + varintLen(v.Int)
	}
	n := 1 + uvarintLen(uint64(len(v.Arr)))
	for _, x := range v.Arr {
		n += varintLen(x)
	}
	return n
}

func intSliceLen(s []int) int {
	n := uvarintLen(uint64(len(s)))
	for _, x := range s {
		n += uvarintLen(uint64(x))
	}
	return n
}

// uvarintLen is the encoded size of binary.PutUvarint(v).
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintLen is the encoded size of binary.PutVarint(v) (zig-zag).
func varintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return uvarintLen(uv)
}

// String renders a record compactly for debugging and golden tests.
func (r *Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", r.Kind)
	switch r.Kind {
	case RecPrelog, RecPostlog:
		fmt.Fprintf(&b, " blk=%d", r.Block)
	case RecShPrelog:
		fmt.Fprintf(&b, " s%d", r.Stmt)
	case RecSync:
		fmt.Fprintf(&b, " %s obj=%d gsn=%d", r.Op, r.Obj, r.Gsn)
		if r.FromGsn != 0 {
			fmt.Fprintf(&b, " from=%d", r.FromGsn)
		}
	case RecStart:
		fmt.Fprintf(&b, " from=%d", r.FromGsn)
	}
	if r.Locals.Len() > 0 {
		fmt.Fprintf(&b, " locals=%s", pairsString(r.Locals))
	}
	if r.Globals.Len() > 0 {
		fmt.Fprintf(&b, " globals=%s", pairsString(r.Globals))
	}
	if r.Ret != nil {
		fmt.Fprintf(&b, " ret=%s", r.Ret)
	}
	return b.String()
}

func pairsString(p Pairs) string {
	parts := make([]string, len(p))
	for i := range p {
		parts[i] = fmt.Sprintf("%d:%s", p[i].Idx, p[i].Val)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
