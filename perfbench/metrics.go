package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// minTail is the number of samples that must lie beyond a percentile
// before the benchmark reports it as a tail.
const minTail = 10

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of xs (the mean of the middle two for an even
// count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank q-quantile of xs and whether at least
// minTail samples lie strictly beyond it. A tail with fewer samples
// beyond it is not reported.
func tail(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if n == 0 || rank < 1 || n-rank < minTail {
		return math.NaN(), false
	}
	return sorted(xs)[rank-1], true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencyUnits gives each question's end-to-end timing unit.
var latencyUnits = [numKinds]struct {
	unit  string
	scale float64 // per second
}{
	qRaces:    {"ms", 1e3},
	qFlowback: {"ms", 1e3},
	qReplay:   {"us", 1e6},
	qVerdict:  {"ms", 1e3},
}

// endToEnd computes the untraced run's end-to-end metrics. problems
// collects anything that makes the result unusable.
func endToEnd(ph *phase, setups []float64, problems *[]string) map[string]metric {
	m := map[string]metric{
		"setup_s": {median(setups), "s"},
	}
	for k := kind(0); k < numKinds; k++ {
		u := latencyUnits[k]
		xs := ph.latencies(k)
		p90, ok := tail(xs, 0.9)
		if !ok {
			*problems = append(*problems, kindNames[k]+": too few samples for p90")
		}
		m[kindNames[k]+"_p50_"+u.unit] = metric{median(xs) * u.scale, u.unit}
		m[kindNames[k]+"_p90_"+u.unit] = metric{p90 * u.scale, u.unit}
	}
	var logged, bare time.Duration
	var live []float64
	for _, c := range ph.clients {
		for _, r := range c.runs {
			if ph.keep(r.logged) && ph.keep(r.bare) {
				logged += r.logged.d
				bare += r.bare.d
			}
		}
		live = append(live, c.liveHeap...)
	}
	answers := 0
	for k := kind(0); k < numKinds; k++ {
		answers += len(ph.latencies(k))
	}
	m["answers_per_s"] = metric{float64(answers) / ph.measured.Seconds(), "1/s"}
	m["log_slowdown"] = metric{ratio(float64(logged), float64(bare)), "ratio"}
	m["peak_heap_mb"] = metric{peak(live) / 1e6, "MB"}
	return m
}

// peak is the high end of the live heap over GC cycles: its 99th
// percentile, or with too few cycles for that, the highest value that
// still has minTail cycles beyond it. The maximum itself hinges on which
// allocations one GC happened to find live.
func peak(live []float64) float64 {
	if v, ok := tail(live, 0.99); ok {
		return v
	}
	s := sorted(live)
	if len(s) == 0 {
		return 0
	}
	return s[max(len(s)-1-minTail, 0)]
}

// questionLayers are the layers a question's root span has as children.
var questionLayers = []string{"compile", "vm", "parallel", "analysis", "race", "emulation", "controller", "replay", "stream", "server"}

// spanStats aggregates a traced run's spans.
type spanStats struct {
	self      map[string][]float64 // self seconds by "name" and by "name/tag"
	layerSelf map[string]float64   // self seconds of question children, by layer
	rootTotal float64              // duration of all question roots
	rootSelf  float64              // the part of it no child covers
}

func newSpanStats() *spanStats {
	return &spanStats{self: map[string][]float64{}, layerSelf: map[string]float64{}}
}

func isQuestion(name string) bool {
	for _, n := range kindNames {
		if n == name {
			return true
		}
	}
	return false
}

func (st *spanStats) add(spans []span) {
	self := selfTimes(spans)
	for i, s := range spans {
		v := self[i].Seconds()
		st.self[s.name] = append(st.self[s.name], v)
		if s.tag != "" {
			st.self[s.name+"/"+s.tag] = append(st.self[s.name+"/"+s.tag], v)
		}
		switch {
		case s.parent < 0 && isQuestion(s.name):
			st.rootTotal += (s.end - s.start).Seconds()
			st.rootSelf += v
		case s.parent >= 0 && spans[s.parent].parent < 0 && isQuestion(spans[s.parent].name):
			st.layerSelf[s.name] += v
		}
	}
}

// perLayer computes the traced run's per-layer metrics. setup holds the
// spans of the traced set-up (cold compiles), base the untraced run.
func perLayer(ph, base *phase, setup []span, probe map[string]float64, rejected int64) map[string]metric {
	st := newSpanStats()
	for _, c := range ph.clients {
		st.add(c.tr.spans)
	}
	loopHits, loopCompiles := len(st.self["compile/hit"]), len(st.self["compile"])
	st.add(setup)

	counts := map[string][]float64{}
	for _, c := range ph.clients {
		for k, v := range c.counts {
			counts[k] = append(counts[k], v...)
		}
	}
	med := func(name string) float64 { return nz(median(counts[name])) }
	tot := func(name string) float64 { return sum(counts[name]) }
	ms := func(key string) float64 { return nz(median(st.self[key])) * 1e3 }
	us := func(key string) float64 { return nz(median(st.self[key])) * 1e6 }

	m := map[string]metric{
		"compile.cold_ms":         {ms("compile/miss"), "ms"},
		"compile.hit_us":          {us("compile/hit"), "us"},
		"compile.cache_hit_ratio": {ratio(float64(loopHits), float64(loopCompiles)), "ratio"},
		"compile.instrs":          {med("compile.instrs"), "count"},
		"compile.allocs":          {probe["compile.allocs"], "count"},

		"analysis.vet_ms":     {ms("analysis"), "ms"},
		"race.buckets_pruned": {med("race.buckets_pruned"), "count"},

		"vm.bare_ms":            {ms("vm/bare"), "ms"},
		"vm.logged_ms":          {ms("vm/logged"), "ms"},
		"vm.steps":              {med("vm.steps"), "count"},
		"vm.logged_ns_per_step": {ratio(sum(st.self["vm/logged"])*1e9, tot("vm.steps")), "ns"},
		"vm.logged_allocs":      {probe["vm.logged_allocs"], "count"},
		"vm.ctxswitches":        {med("vm.ctxswitches"), "count"},

		"logging.bytes":            {med("logging.bytes"), "bytes"},
		"logging.bytes_per_step":   {ratio(tot("logging.bytes"), tot("vm.steps")), "bytes"},
		"logging.sync_records":     {med("logging.sync_records"), "count"},
		"logging.sync_bytes_ratio": {ratio(tot("logging.sync_bytes"), tot("logging.bytes")), "ratio"},

		"parallel.build_ms": {ms("parallel"), "ms"},
		"parallel.edges":    {med("parallel.edges"), "count"},

		"race.detect_ms":    {ms("race"), "ms"},
		"race.pairs":        {med("race.pairs"), "count"},
		"race.races":        {med("race.races"), "count"},
		"race.useful_ratio": {ratio(tot("race.races"), tot("race.pairs")), "ratio"},

		"stream.monitored_ms":       {ms("stream"), "ms"},
		"stream.pairs":              {med("stream.pairs"), "count"},
		"stream.frontier_highwater": {med("stream.highwater"), "count"},
		"stream.retired_ratio":      {ratio(tot("stream.retired"), tot("stream.events")), "ratio"},

		"emulation.miss_us":              {us("emulation/miss"), "us"},
		"emulation.hit_us":               {us("emulation/hit"), "us"},
		"emulation.emulations":           {tot("emulation.emulations"), "count"},
		"emulation.allocs_per_emulation": {probe["emulation.allocs_per_emulation"], "count"},
		"emulation.pool_hit_ratio":       {ratio(tot("emulation.pool_hits"), tot("emulation.pool_hits")+tot("emulation.pool_misses")), "ratio"},
		"emulation.fast_ratio":           {ratio(tot("emulation.fast"), tot("emulation.fast")+tot("emulation.cold")), "ratio"},
		"controller.cache_hit_ratio":     {ratio(tot("controller.hits"), tot("controller.hits")+tot("controller.misses")), "ratio"},

		"replay.replayto_us":      {us("replay"), "us"},
		"replay.ckpt_hit_ratio":   {ratio(tot("replay.ckpt_hits"), float64(len(st.self["replay"]))), "ratio"},
		"replay.ckpt_stores":      {med("replay.ckpt_stores"), "count"},
		"server.create_ms":        {ms("server/create"), "ms"},
		"server.races_ms":         {ms("server/races"), "ms"},
		"server.flowback_ms":      {ms("server/flowback"), "ms"},
		"server.delete_ms":        {ms("server/delete"), "ms"},
		"server.rejected":         {float64(rejected), "count"},
		"sched.tasks":             {med("sched.tasks"), "count"},
		"sched.busy_ms":           {med("sched.busy_ms"), "ms"},
		"sched.wait_ms":           {med("sched.wait_ms"), "ms"},
		"gc.cycles":               {float64(ph.gcCycles), "count"},
		"gc.pause_ms":             {ph.gcPause.Seconds() * 1e3, "ms"},
		"bench.unaccounted_ratio": {ratio(st.rootSelf, st.rootTotal), "ratio"},
	}
	attempted, failed := ph.tally()
	m["bench.fail_ratio"] = metric{ratio(float64(failed), float64(attempted)), "ratio"}
	for _, l := range questionLayers {
		m["self."+l+"_share"] = metric{ratio(st.layerSelf[l], st.rootTotal), "ratio"}
	}
	for k := kind(0); k < numKinds; k++ {
		u := latencyUnits[k]
		d := median(ph.latencies(k)) - median(base.latencies(k))
		m["bench.trace_overhead_"+kindNames[k]+"_"+u.unit] = metric{nz(d) * u.scale, u.unit}
	}
	return m
}

// nz maps NaN (no samples) to 0, for layers a workload does not reach.
func nz(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// phase is one timed loop: its clients and what it cost the runtime.
type phase struct {
	clients  []*client
	elapsed  time.Duration
	gcCycles uint32
	gcPause  time.Duration

	// watch marks the periods the host took the CPUs away. When filter is
	// set, answers that overlap them are left out, and measured is the
	// uncontended part of elapsed; otherwise measured is elapsed.
	watch    *stealWatch
	filter   bool
	measured time.Duration
}

// settle decides whether to leave contended answers out: only when every
// question keeps enough uncontended answers for its p90 (ten times
// minTail).
func (ph *phase) settle(w *stealWatch) {
	ph.watch, ph.filter, ph.measured = w, true, ph.elapsed-w.lost(ph.elapsed)
	for k := kind(0); k < numKinds; k++ {
		if len(ph.latencies(k)) < 10*minTail {
			ph.filter, ph.measured = false, ph.elapsed
			return
		}
	}
}

// keep reports whether sample s counts: always without the filter,
// otherwise when it overlaps no contended period.
func (ph *phase) keep(s sample) bool {
	return !ph.filter || !ph.watch.overlaps(s.at, s.at+max(s.d, 0))
}

// latencies returns the kept answers to question k in seconds, +Inf for
// a failed answer.
func (ph *phase) latencies(k kind) []float64 {
	var xs []float64
	for _, c := range ph.clients {
		for _, s := range c.lat[k] {
			switch {
			case !ph.keep(s):
			case s.d < 0:
				xs = append(xs, math.Inf(1))
			default:
				xs = append(xs, s.d.Seconds())
			}
		}
	}
	return xs
}

func (ph *phase) tally() (attempted, failed int) {
	for _, c := range ph.clients {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

func (ph *phase) failures() string {
	var all []string
	for _, c := range ph.clients {
		all = append(all, c.failures...)
	}
	return strings.Join(all, "; ")
}
