package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// declared is the metric list of BENCHMARK.json at the repository root.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWorkloadsSmoke runs every workload at smoke size, untraced and
// traced, and checks that each prints exactly the declared metrics with
// their units and that no answer failed.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := readDeclared(t)
	if len(d.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloadDefs))
	}
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: defaultSeed, seconds: 0.2, trace: trace,
				root: "..", work: t.TempDir()}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d problems=%v",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			want := map[string]string{}
			for _, m := range d.EndToEnd {
				want[m.Name] = m.Unit
			}
			if trace {
				want = map[string]string{}
				for _, m := range d.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s missing", w.Name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%t: %s in %q, declared %q", w.Name, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%t: metric %s not declared", w.Name, trace, name)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{0, 0.9, false, 0},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{250, 0.9, true, 225},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
	} {
		got, ok := tail(seq(tc.n), tc.q)
		if ok != tc.ok || ok && got != tc.want {
			t.Errorf("tail(1..%d, %v) = %v, %t; want %v, %t", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median(1..4) = %v, want 2.5", got)
	}
}

func TestSelfTimeIsParentMinusUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "races", parent: -1, start: ms(0), end: ms(100)},
		{name: "compile", parent: 0, start: ms(10), end: ms(30)},
		{name: "vm", parent: 0, start: ms(20), end: ms(50)},    // overlaps compile
		{name: "race", parent: 0, start: ms(90), end: ms(120)}, // runs past its parent
		{name: "inner", parent: 2, start: ms(25), end: ms(35)},
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the parent: 50ms.
	for i, want := range []time.Duration{ms(50), ms(20), ms(20), ms(30), ms(10)} {
		if self[i] != want {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, self[i], want)
		}
	}

	// The tracer nests spans by call order and records nothing when nil.
	tr := newTracer(time.Now())
	root := tr.begin("flowback")
	child := tr.begin("emulation")
	tr.end(child)
	tr.tag(child, "miss")
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[child].parent != root || tr.spans[child].tag != "miss" {
		t.Errorf("spans = %+v", tr.spans)
	}
	if got := selfTimes(tr.spans)[root]; got != tr.spans[root].end-tr.spans[root].start-(tr.spans[child].end-tr.spans[child].start) {
		t.Errorf("root self time %v does not exclude its child", got)
	}
	var none *tracer
	none.end(none.begin("races"))
}

// TestPrintMarksUnmeasuredIncorrect checks that a metric with no finite
// value still yields a well-formed last line, marked incorrect.
func TestPrintMarksUnmeasuredIncorrect(t *testing.T) {
	r := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{
		"races_p50_ms": {1.5, "ms"},
		"races_p90_ms": {math.NaN(), "ms"},
	}}
	var b bytes.Buffer
	if err := r.print(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	var last struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Metrics["races_p90_ms"].Value != -1 || last.Metrics["races_p50_ms"].Value != 1.5 {
		t.Errorf("last line = %s", lines[len(lines)-1])
	}
}
