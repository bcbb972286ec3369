// Package workloads provides the MPL benchmark programs used by the
// top-level benchmarks, the tests and perfbench. They are modelled on the
// program classes the paper's informal experiments used
// (§7: "hand-annotating programs using the semantic analyses" and measuring
// tracing overhead): a compute-bound kernel, a producer/consumer pipeline,
// a token ring, and a recursive divide-and-conquer — spanning the spectrum
// from sync-free number crunching to sync-heavy message passing.
package workloads

import (
	"fmt"
	"strings"
)

// Workload is one benchmark program.
type Workload struct {
	Name string
	Desc string
	Src  string
	// Procs is the number of processes the program spawns (including main).
	Procs int
	// Output is the expected program output (sanity check for harnesses).
	Output string
}

// Matmul multiplies two n×n matrices in a single process: the compute-bound
// extreme, with subroutine e-blocks in the inner loops' call chain.
func Matmul(n int) *Workload {
	src := fmt.Sprintf(`
shared a[%d];
shared b[%d];
shared c[%d];
var n = %d;

func idx(i int, j int) int { return i * n + j; }

func fill() {
	var i = 0;
	while (i < n) {
		var j = 0;
		while (j < n) {
			a[idx(i, j)] = i + j;
			b[idx(i, j)] = i - j;
			j = j + 1;
		}
		i = i + 1;
	}
}

func rowcol(i int, j int) int {
	var s = 0;
	var k = 0;
	while (k < n) {
		s = s + a[idx(i, k)] * b[idx(k, j)];
		k = k + 1;
	}
	return s;
}

func multiply() {
	var i = 0;
	while (i < n) {
		var j = 0;
		while (j < n) {
			c[idx(i, j)] = rowcol(i, j);
			j = j + 1;
		}
		i = i + 1;
	}
}

func trace_() int {
	var t = 0;
	var i = 0;
	while (i < n) {
		t = t + c[idx(i, i)];
		i = i + 1;
	}
	return t;
}

func main() {
	fill();
	multiply();
	print("trace=", trace_());
}
`, n*n, n*n, n*n, n)
	tr := 0
	ai := func(i, j int) int { return i + j }
	bi := func(i, j int) int { return i - j }
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			tr += ai(i, k) * bi(k, i)
		}
	}
	return &Workload{
		Name:   "matmul",
		Desc:   fmt.Sprintf("%dx%d matrix multiply (compute-bound, no sync)", n, n),
		Src:    src,
		Procs:  1,
		Output: fmt.Sprintf("trace=%d\n", tr),
	}
}

// ProdCons runs producers feeding consumers through a bounded channel —
// the classic sync-heavy pipeline.
func ProdCons(items int) *Workload {
	src := fmt.Sprintf(`
chan queue[4];
shared consumed;
sem done = 0;
var items = %d;

func producer() {
	var i = 1;
	while (i <= items) {
		send(queue, i);
		i = i + 1;
	}
	send(queue, -1);
}

func digest(v int) int {
	var h = v;
	var k = 0;
	while (k < 6) {
		h = (h * 31 + v) %% 65536;
		k = k + 1;
	}
	return h;
}

func consumer() {
	var total = 0;
	var check = 0;
	var v = recv(queue);
	while (v >= 0) {
		total = total + v;
		check = digest(check + v);
		v = recv(queue);
	}
	consumed = total;
	V(done);
}

func main() {
	spawn producer();
	spawn consumer();
	P(done);
	print("sum=", consumed);
}
`, items)
	return &Workload{
		Name:   "prodcons",
		Desc:   fmt.Sprintf("producer/consumer, %d items over a bounded channel", items),
		Src:    src,
		Procs:  3,
		Output: fmt.Sprintf("sum=%d\n", items*(items+1)/2),
	}
}

// TokenRing passes a token around a ring of workers, each adding its id —
// many small synchronized critical sections.
func TokenRing(workers, rounds int) *Workload {
	src := fmt.Sprintf(`
shared token;
chan hand[1];
sem done = 0;
var workers = %d;
var rounds = %d;

func work(t int) int {
	var acc = t;
	var k = 0;
	while (k < 12) {
		acc = (acc * 7 + k) %% 10007;
		k = k + 1;
	}
	return acc;
}

func worker(id int) {
	var r = 0;
	var checksum = 0;
	while (r < rounds) {
		var t = recv(hand);
		checksum = checksum + work(t);
		token = t + id;
		send(hand, token);
		r = r + 1;
	}
	V(done);
}

func main() {
	var w = 1;
	while (w <= workers) {
		spawn worker(w);
		w = w + 1;
	}
	send(hand, 0);
	var d = 0;
	while (d < workers) {
		P(done);
		d = d + 1;
	}
	var final = recv(hand);
	print("token=", final);
}
`, workers, rounds)
	// Each worker adds its id `rounds` times, in some interleaved order;
	// the sum is deterministic: rounds * (1+..+workers).
	sum := rounds * workers * (workers + 1) / 2
	return &Workload{
		Name:   "tokenring",
		Desc:   fmt.Sprintf("%d workers passing a token %d rounds each", workers, rounds),
		Src:    src,
		Procs:  workers + 1,
		Output: fmt.Sprintf("token=%d\n", sum),
	}
}

// Relay chains main and `stages` workers into a message ring that main
// participates in every round: main injects a token, each stage bumps it
// and a shared hop counter, and main reads it back before injecting the
// next. Exactly one token is ever in flight, so every shared access is
// ordered through the chain (race-free) and — the property this workload
// exists for — every process synchronizes continuously. That keeps the
// online pipeline's happens-before frontier at O(stages) for the whole
// run, in contrast to ProdCons/TokenRing whose main blocks on P(done)
// from spawn to teardown and thus (correctly) pins the frontier open.
func Relay(stages, rounds int) *Workload {
	var sb strings.Builder
	sb.WriteString("shared hops;\n")
	for s := 0; s <= stages; s++ {
		fmt.Fprintf(&sb, "chan c%d[1];\n", s)
	}
	fmt.Fprintf(&sb, "var rounds = %d;\n", rounds)
	for s := 1; s <= stages; s++ {
		fmt.Fprintf(&sb, `
func s%d() {
	var r = 0;
	while (r < rounds) {
		var t = recv(c%d);
		hops = hops + 1;
		send(c%d, t + 1);
		r = r + 1;
	}
}
`, s, s-1, s)
	}
	sb.WriteString("\nfunc main() {\n")
	for s := 1; s <= stages; s++ {
		fmt.Fprintf(&sb, "\tspawn s%d();\n", s)
	}
	sb.WriteString(`	var r = 0;
	var t = 0;
	while (r < rounds) {
		send(c0, t);
		t = recv(c` + fmt.Sprint(stages) + `);
		r = r + 1;
	}
	print("token=", t);
}
`)
	return &Workload{
		Name:   "relay",
		Desc:   fmt.Sprintf("main plus %d stages relaying one token %d rounds", stages, rounds),
		Src:    sb.String(),
		Procs:  stages + 1,
		Output: fmt.Sprintf("token=%d\n", rounds*stages),
	}
}

// Divide computes a recursive divide-and-conquer sum — deep call nesting,
// exercising nested log intervals (§5.2).
func Divide(depth int) *Workload {
	src := fmt.Sprintf(`
var depth = %d;

func conquer(lo int, hi int) int {
	if (hi - lo <= 1) {
		var s = 0;
		var k = 0;
		while (k < 24) { s = s + lo; k = k + 1; }
		return s / 24;
	}
	var mid = (lo + hi) / 2;
	return conquer(lo, mid) + conquer(mid, hi);
}

func main() {
	var n = 1;
	var d = 0;
	while (d < depth) { n = n * 2; d = d + 1; }
	print("sum=", conquer(0, n));
}
`, depth)
	n := 1 << depth
	return &Workload{
		Name:   "divide",
		Desc:   fmt.Sprintf("divide-and-conquer sum over 2^%d leaves (deep nesting)", depth),
		Src:    src,
		Procs:  1,
		Output: fmt.Sprintf("sum=%d\n", n*(n-1)/2),
	}
}

// Standard returns the default experiment suite at moderate sizes.
func Standard() []*Workload {
	return []*Workload{
		Matmul(16),
		ProdCons(600),
		TokenRing(4, 100),
		Divide(11),
		Histo(60),
	}
}

// Histo is a single-process histogram-style kernel whose inner loop is
// built from exactly the operation shapes the abstract interpreter can
// certify: every indexed access uses the loop variable, provably in
// [0,16), and every division's divisor is provably nonzero (b+1 in
// [1,16], or the never-written constant scale). Without certificates
// none of these windows may fuse — the divisor or index check could
// trap mid-window — so this workload is what puts the certified
// SuperOp shapes (lldivs, lldiv, lgdiv, ldiv, idxload*, idxstore*)
// into the profile-guided fusion table.
func Histo(rounds int) *Workload {
	src := fmt.Sprintf(`
shared h[16];
var scale = 4;
var rounds = %d;

func main() {
	var buf[16];
	var acc = 0;
	var i = 0;
	while (i < rounds) {
		var b = 0;
		while (b < 16) {
			var v = acc + i;
			buf[b] = v;
			var u = buf[b];
			var d = b + 1;
			var q = u / d;
			var r = u %% d;
			var t = q + v / d;
			var p = v / scale;
			var w = v - r;
			h[b] = w;
			var y = h[b];
			acc = (y + t - (q + p) / d) %% 9973;
			b = b + 1;
		}
		i = i + 1;
	}
	print("acc=", acc);
}
`, rounds)
	// Mirror of main's arithmetic, op for op, in the same int64
	// semantics the VM uses — the expected output is computed, not
	// hand-pinned, so resizing the workload stays a one-line change.
	var buf, h [16]int64
	acc := int64(0)
	for i := int64(0); i < int64(rounds); i++ {
		for b := int64(0); b < 16; b++ {
			v := acc + i
			buf[b] = v
			u := buf[b]
			d := b + 1
			q := u / d
			r := u % d
			t := q + v/d
			p := v / 4
			w := v - r
			h[b] = w
			y := h[b]
			acc = (y + t - (q+p)/d) % 9973
		}
	}
	return &Workload{
		Name:   "histo",
		Desc:   fmt.Sprintf("%d rounds over 16 buckets of certified indexed/divide windows", rounds),
		Src:    src,
		Procs:  1,
		Output: fmt.Sprintf("acc=%d\n", acc),
	}
}

// Sharded generates a program with one shard variable and one mutex per
// worker: every worker's accesses are disjoint from the others', the ideal
// case for the variable-indexed race detector (E8) — many internal edges,
// tiny per-variable buckets, zero races.
func Sharded(workers, rounds int) *Workload {
	var sb []byte
	add := func(f string, args ...any) { sb = append(sb, []byte(fmt.Sprintf(f, args...))...) }
	add("var cfg = 7;\n")
	add("sem done = 0;\n")
	for i := 0; i < workers; i++ {
		add("shared g%d;\n", i)
		add("sem m%d = 1;\n", i)
	}
	for i := 0; i < workers; i++ {
		add(`
func w%d() {
	var i = 0;
	while (i < %d) {
		P(m%d);
		g%d = g%d + cfg;
		V(m%d);
		i = i + 1;
	}
	V(done);
}
`, i, rounds, i, i, i, i)
	}
	add("\nfunc main() {\n")
	for i := 0; i < workers; i++ {
		add("\tspawn w%d();\n", i)
	}
	add("\tvar d = 0;\n\twhile (d < %d) { P(done); d = d + 1; }\n", workers)
	add("}\n")
	return &Workload{
		Name:  fmt.Sprintf("sharded-%dx%d", workers, rounds),
		Desc:  fmt.Sprintf("%d workers × %d rounds on disjoint shards", workers, rounds),
		Src:   string(sb),
		Procs: workers + 1,
	}
}

// RacyTicker races like RacyCounter but synchronizes on a semaphore
// every iteration, so each increment lands in its own edge and racing
// edges surface within the first few iterations of the run — the shape
// early-abort (Options.StopAtFirstRace) is measured on. RacyCounter's
// workers, by contrast, produce one long edge each: their race is only
// detectable once a worker's whole loop has finished.
func RacyTicker(workers, rounds int) *Workload {
	src := fmt.Sprintf(`
shared counter;
sem m = 1;
sem done = 0;
var rounds = %d;

func w() {
	var i = 0;
	while (i < rounds) {
		P(m);
		V(m);
		counter = counter + 1;
		i = i + 1;
	}
	V(done);
}

func main() {
	var k = 0;
	while (k < %d) { spawn w(); k = k + 1; }
	var d = 0;
	while (d < %d) { P(done); d = d + 1; }
	print(counter);
}
`, rounds, workers, workers)
	return &Workload{
		Name:  "racy-ticker",
		Desc:  fmt.Sprintf("%d workers × %d racy increments with per-iteration sync", workers, rounds),
		Src:   src,
		Procs: workers + 1,
	}
}

// RacyCounter is the canonical racy program (unprotected shared counter)
// used by the race-detection experiments; protect toggles the mutex.
func RacyCounter(workers, increments int, protect bool) *Workload {
	lock, unlock := "", ""
	if protect {
		lock, unlock = "P(m);", "V(m);"
	}
	src := fmt.Sprintf(`
shared counter;
sem m = 1;
sem done = 0;
var incs = %d;

func w() {
	var i = 0;
	while (i < incs) {
		%s
		counter = counter + 1;
		%s
		i = i + 1;
	}
	V(done);
}

func main() {
	var k = 0;
	while (k < %d) { spawn w(); k = k + 1; }
	var d = 0;
	while (d < %d) { P(done); d = d + 1; }
	print(counter);
}
`, increments, lock, unlock, workers, workers)
	name := "racy-counter"
	if protect {
		name = "safe-counter"
	}
	return &Workload{
		Name:  name,
		Desc:  fmt.Sprintf("%d workers × %d increments, protect=%t", workers, increments, protect),
		Src:   src,
		Procs: workers + 1,
	}
}

// GuardedCounter is the fully disciplined sibling of RacyCounter: the
// workers' increments and main's final read all hold the binary
// semaphore m, so the lockset analysis proves the counter mutex-guarded
// and drops it from the conflict mask entirely. (RacyCounter's protect
// variant deliberately reads the counter in main without the lock, so
// it stays in the mask — this workload is the one where static pruning
// pays off on a genuinely contended variable.)
func GuardedCounter(workers, increments int) *Workload {
	src := fmt.Sprintf(`
shared counter;
sem m = 1;
sem done = 0;
var incs = %d;

func w() {
	var i = 0;
	while (i < incs) {
		P(m);
		counter = counter + 1;
		V(m);
		i = i + 1;
	}
	V(done);
}

func main() {
	var k = 0;
	while (k < %d) { spawn w(); k = k + 1; }
	var d = 0;
	while (d < %d) { P(done); d = d + 1; }
	P(m);
	print(counter);
	V(m);
}
`, increments, workers, workers)
	return &Workload{
		Name:   "guarded-counter",
		Desc:   fmt.Sprintf("%d workers × %d increments, every access lock-guarded", workers, increments),
		Src:    src,
		Procs:  workers + 1,
		Output: fmt.Sprintf("%d\n", workers*increments),
	}
}
