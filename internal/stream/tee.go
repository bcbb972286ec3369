package stream

import (
	"ppd/internal/logging"
	"ppd/internal/parallel"
)

// DefaultBatch is the tee's record batch size when the caller does not
// choose one: small enough that races surface promptly, large enough that
// the VM goroutine rarely touches the channel.
const DefaultBatch = 64

// Tee adapts the logging tap (vm.Options.Tap) into the pipeline's feed: it
// copies each sync-relevant record into a FeedRecord on the VM goroutine
// (the tap contract — the record is recycled the moment the tap returns),
// batches them, and hands batches to a single feeding goroutine over a
// small bounded channel. The bound gives backpressure: a pipeline that
// falls behind slows the VM instead of buffering the run, keeping the
// end-to-end memory bounded by the frontier width plus a few batches.
type Tee struct {
	pipe      *Pipeline
	batchSize int
	batch     []parallel.FeedRecord
	ints      []int // backs the current batch's Reads/Writes copies
	ch        chan []parallel.FeedRecord
	done      chan struct{}
	closed    bool
}

// NewTee starts the feeding goroutine. batchSize <= 0 selects
// DefaultBatch; batchSize 1 feeds every record immediately (lowest
// latency to first race, highest handoff cost).
func NewTee(p *Pipeline, batchSize int) *Tee {
	if batchSize <= 0 {
		batchSize = DefaultBatch
	}
	t := &Tee{
		pipe:      p,
		batchSize: batchSize,
		batch:     make([]parallel.FeedRecord, 0, batchSize),
		ch:        make(chan []parallel.FeedRecord, 4),
		done:      make(chan struct{}),
	}
	go t.run()
	return t
}

func (t *Tee) run() {
	defer close(t.done)
	for b := range t.ch {
		t.pipe.Feed(b)
	}
}

// Tap is the logging.Tap: install it via vm.Options.Tap. It filters the
// sync-relevant kinds (everything else only advances the record index,
// which FeedRecord.RecIdx already carries) and copies the fields the
// builder needs — the record itself is recycled when this returns. The
// read/write lists are copied into one arena per batch, not a slice each.
func (t *Tee) Tap(pid, idx int, r *logging.Record) {
	switch r.Kind {
	case logging.RecSync, logging.RecStart, logging.RecExit:
	default:
		return
	}
	t.batch = append(t.batch, parallel.FeedRecord{
		PID:     pid,
		RecIdx:  idx,
		Kind:    r.Kind,
		Op:      r.Op,
		Obj:     r.Obj,
		Stmt:    r.Stmt,
		Gsn:     r.Gsn,
		FromGsn: r.FromGsn,
		Reads:   t.copyInts(r.Reads),
		Writes:  t.copyInts(r.Writes),
	})
	if len(t.batch) >= t.batchSize {
		t.flush()
	}
}

// copyInts copies xs into the batch's arena (cap == len, so a carve never
// grows into its neighbour). A grown arena leaves earlier carves in the
// old array, which the batch still references.
func (t *Tee) copyInts(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	n := len(t.ints)
	t.ints = append(t.ints, xs...)
	return t.ints[n : n+len(xs) : n+len(xs)]
}

func (t *Tee) flush() {
	if len(t.batch) == 0 {
		return
	}
	t.ch <- t.batch
	t.batch = make([]parallel.FeedRecord, 0, t.batchSize)
	t.ints = make([]int, 0, cap(t.ints))
}

// Close flushes the final partial batch and waits for the feeding
// goroutine to drain — after Close returns, the pipeline has consumed
// every tapped record and Finish is safe to call. Idempotent.
func (t *Tee) Close() {
	if t.closed {
		return
	}
	t.closed = true
	t.flush()
	close(t.ch)
	<-t.done
}
