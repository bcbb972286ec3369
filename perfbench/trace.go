package main

import (
	"sort"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark around
// its own call into that layer's public function. Spans nest: a question
// is a root span and the layer calls it makes are its children.
type span struct {
	name       string
	tag        string // outcome the caller attached, e.g. "hit" or "miss"
	parent     int    // index into tracer.spans, -1 for a root
	start, end time.Duration
}

// tracer records spans in memory for one client goroutine. A nil *tracer
// records nothing, so the untraced run pays one nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of spans begun and not yet ended
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// tag attaches an outcome to a closed span.
func (t *tracer) tag(id int, tag string) {
	if t == nil {
		return
	}
	t.spans[id].tag = tag
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]time.Duration{spans[c].start, spans[c].end})
		}
		self[i] = s.end - s.start - covered(ivs, s.start, s.end)
	}
	return self
}

// covered is the length of the union of intervals ivs clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if curHi < 0 || a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return total
}
