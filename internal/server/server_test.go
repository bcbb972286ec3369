package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ppd"
	"ppd/internal/workloads"
)

const crashSrc = `
var g = 1;
func f(a int) int {
	g = g + a;
	return g * 2;
}
func main() {
	var r = f(20) / (g - 21);
	print(r);
}
`

// harness bundles a Server with an httptest frontend and a JSON client.
type harness struct {
	srv *Server
	ts  *httptest.Server
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &harness{srv: srv, ts: ts}
}

// call issues a JSON request and decodes the response body into out
// (which may be nil). It returns the HTTP status code.
func (h *harness) call(t *testing.T, method, path string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, data, err)
		}
	}
	if out != nil && resp.StatusCode >= 300 {
		_ = json.Unmarshal(data, out) // error envelope, best effort
	}
	return resp.StatusCode
}

func (h *harness) create(t *testing.T, src string, extra map[string]any) string {
	t.Helper()
	body := map[string]any{"filename": "t.mpl", "source": src}
	for k, v := range extra {
		body[k] = v
	}
	var created struct {
		ID string `json:"id"`
	}
	if code := h.call(t, "POST", "/v1/sessions", body, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	return created.ID
}

func (h *harness) metrics(t *testing.T) map[string]int64 {
	t.Helper()
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if code := h.call(t, "GET", "/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	return m.Counters
}

// TestServerLifecycle drives the full session surface end to end over
// HTTP: create, list, attach, query every endpoint, delete, 404 after.
func TestServerLifecycle(t *testing.T) {
	h := newHarness(t, Config{})
	id := h.create(t, crashSrc, nil)

	var info struct {
		ID     string `json:"id"`
		Failed string `json:"failed"`
	}
	if code := h.call(t, "GET", "/v1/sessions/"+id, nil, &info); code != http.StatusOK {
		t.Fatalf("attach: status %d", code)
	}
	if info.Failed == "" {
		t.Error("attach info lost the failure")
	}

	var list struct {
		Count int `json:"count"`
	}
	h.call(t, "GET", "/v1/sessions", nil, &list)
	if list.Count != 1 {
		t.Errorf("list count = %d, want 1", list.Count)
	}

	if code := h.call(t, "GET", "/v1/sessions/"+id+"/races", nil, nil); code != http.StatusOK {
		t.Errorf("races: status %d", code)
	}
	var fb struct {
		Fragment string `json:"fragment"`
	}
	if code := h.call(t, "POST", "/v1/sessions/"+id+"/flowback",
		map[string]any{"pid": 0, "depth": 3}, &fb); code != http.StatusOK || fb.Fragment == "" {
		t.Errorf("flowback: status %d, fragment %q", code, fb.Fragment)
	}
	var wi struct {
		OriginalErr string `json:"original_err"`
		ModifiedErr string `json:"modified_err"`
	}
	if code := h.call(t, "POST", "/v1/sessions/"+id+"/whatif",
		map[string]any{"pid": 0, "prelog": -1, "global": "g", "value": 5}, &wi); code != http.StatusOK {
		t.Fatalf("whatif: status %d", code)
	}
	if wi.OriginalErr == "" || wi.ModifiedErr != "" {
		t.Errorf("whatif: original %q, modified %q; want failure → success", wi.OriginalErr, wi.ModifiedErr)
	}
	if code := h.call(t, "GET", "/v1/sessions/"+id+"/vet", nil, nil); code != http.StatusOK {
		t.Errorf("vet: status %d", code)
	}
	if code := h.call(t, "GET", "/v1/sessions/"+id+"/stats", nil, nil); code != http.StatusOK {
		t.Errorf("stats: status %d", code)
	}
	resp, err := http.Get(h.ts.URL + "/v1/sessions/" + id + "/log")
	if err != nil {
		t.Fatal(err)
	}
	logBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(logBytes) == 0 {
		t.Errorf("log download: status %d, %d bytes", resp.StatusCode, len(logBytes))
	}

	// Re-run under a different seed replaces the execution in place.
	if code := h.call(t, "POST", "/v1/sessions/"+id+"/run",
		map[string]any{"seed": 9}, nil); code != http.StatusOK {
		t.Errorf("rerun: status %d", code)
	}

	if code := h.call(t, "DELETE", "/v1/sessions/"+id, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	var errBody struct {
		Code string `json:"code"`
	}
	if code := h.call(t, "GET", "/v1/sessions/"+id, nil, &errBody); code != http.StatusNotFound {
		t.Errorf("attach after delete: status %d, want 404", code)
	}
	if errBody.Code != "session_not_found" {
		t.Errorf("error code = %q, want session_not_found", errBody.Code)
	}
}

// TestServerConcurrentSessions exercises the whole table under the race
// detector: many goroutines create, attach, query, re-run, and delete
// overlapping sessions while a sweeper runs.
func TestServerConcurrentSessions(t *testing.T) {
	h := newHarness(t, Config{SessionTTL: time.Hour})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := h.create(t, crashSrc, map[string]any{"seed": i})
			h.call(t, "GET", "/v1/sessions/"+id, nil, nil)
			h.call(t, "GET", "/v1/sessions/"+id+"/races", nil, nil)
			h.call(t, "POST", "/v1/sessions/"+id+"/flowback", map[string]any{"pid": 0, "depth": 2}, nil)
			h.call(t, "GET", "/v1/sessions", nil, nil)
			if i%2 == 0 {
				h.call(t, "DELETE", "/v1/sessions/"+id, nil, nil)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
				h.srv.SweepIdle(time.Now()) // TTL is an hour: evicts nothing, races with everything
				h.call(t, "GET", "/metrics", nil, nil)
			}
		}
	}()
	wg.Wait()
	done <- struct{}{}
	<-done

	counters := h.metrics(t)
	if got := counters["server.sessions.created"]; got != 8 {
		t.Errorf("server.sessions.created = %d, want 8", got)
	}
	if got := counters["server.sessions.closed"]; got != 4 {
		t.Errorf("server.sessions.closed = %d, want 4", got)
	}
	if got := counters["server.sessions.active"]; got != 4 {
		t.Errorf("server.sessions.active = %d, want 4", got)
	}
}

// TestTTLEvictionFreesEmulationCache is the satellite contract: an idle
// session's eviction drops its controller cache, observable in /metrics as
// debug.cache.evictions even after the session is gone.
func TestTTLEvictionFreesEmulationCache(t *testing.T) {
	ttl := time.Minute
	h := newHarness(t, Config{SessionTTL: ttl})
	id := h.create(t, crashSrc, nil)
	// Populate the emulation cache.
	if code := h.call(t, "POST", "/v1/sessions/"+id+"/flowback",
		map[string]any{"pid": 0, "depth": 2}, nil); code != http.StatusOK {
		t.Fatalf("flowback: status %d", code)
	}

	// Not yet idle long enough: nothing happens.
	if n := h.srv.SweepIdle(time.Now()); n != 0 {
		t.Fatalf("premature eviction of %d session(s)", n)
	}
	// Synthetic clock: far past the TTL.
	if n := h.srv.SweepIdle(time.Now().Add(ttl + time.Hour)); n != 1 {
		t.Fatalf("SweepIdle evicted %d session(s), want 1", n)
	}

	counters := h.metrics(t)
	if got := counters["server.sessions.expired"]; got != 1 {
		t.Errorf("server.sessions.expired = %d, want 1", got)
	}
	if got := counters["server.sessions.active"]; got != 0 {
		t.Errorf("server.sessions.active = %d, want 0", got)
	}
	if got := counters["debug.cache.evictions"]; got < 1 {
		t.Errorf("debug.cache.evictions = %d, want >= 1 (eviction must free the emulation cache)", got)
	}
	if code := h.call(t, "GET", "/v1/sessions/"+id, nil, nil); code != http.StatusNotFound {
		t.Errorf("attach after expiry: status %d, want 404", code)
	}
}

// TestArtifactCacheSharedAcrossSessions: the second session over identical
// source must hit the persistent artifact cache, visible in /metrics.
func TestArtifactCacheSharedAcrossSessions(t *testing.T) {
	h := newHarness(t, Config{CacheDir: t.TempDir()})
	h.create(t, crashSrc, nil)
	h.create(t, crashSrc, nil)
	counters := h.metrics(t)
	if got := counters["compile.cache.hits"]; got < 1 {
		t.Errorf("compile.cache.hits = %d, want >= 1 (second identical compile must hit)", got)
	}
	if got := counters["compile.cache.misses"]; got != 1 {
		t.Errorf("compile.cache.misses = %d, want 1", got)
	}
}

// TestRaceReportByteIdentical: the report served over HTTP equals the
// single-process API's byte for byte, for the same (source, seed, quantum).
func TestRaceReportByteIdentical(t *testing.T) {
	wl := workloads.RacyCounter(4, 20, false)
	const seed, quantum = 11, 1

	direct, err := ppd.OpenSession(wl.Name+".mpl", wl.Src, ppd.Options{Seed: seed, Quantum: quantum})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	want, err := direct.RaceReport()
	if err != nil {
		t.Fatal(err)
	}
	races, err := direct.Races()
	if err != nil {
		t.Fatal(err)
	}
	if len(races) == 0 {
		t.Fatal("racy workload produced no races; the identity check is vacuous")
	}

	h := newHarness(t, Config{})
	id := h.create(t, wl.Src, map[string]any{"seed": seed, "quantum": quantum})
	var resp struct {
		Count  int    `json:"count"`
		Report string `json:"report"`
	}
	if code := h.call(t, "GET", "/v1/sessions/"+id+"/races", nil, &resp); code != http.StatusOK {
		t.Fatalf("races: status %d", code)
	}
	if resp.Count != len(races) {
		t.Errorf("served %d races, direct API found %d", resp.Count, len(races))
	}
	if resp.Report != want {
		t.Errorf("served race report diverged from the direct API:\n--- direct\n%s\n--- served\n%s", want, resp.Report)
	}
}

// TestSaturation: with every worker slot taken and no queue, requests are
// refused with 429/server_saturated; MaxSessions bounds the table the same
// way.
func TestSaturation(t *testing.T) {
	h := newHarness(t, Config{Workers: 1, MaxQueue: -1})
	// Occupy the only worker slot from the test.
	h.srv.sem <- struct{}{}
	var errBody struct {
		Code string `json:"code"`
	}
	code := h.call(t, "POST", "/v1/sessions",
		map[string]any{"source": crashSrc}, &errBody)
	if code != http.StatusTooManyRequests || errBody.Code != "server_saturated" {
		t.Errorf("create while saturated: status %d code %q, want 429 server_saturated", code, errBody.Code)
	}
	<-h.srv.sem
	if got := h.metrics(t)["server.rejected.saturated"]; got != 1 {
		t.Errorf("server.rejected.saturated = %d, want 1", got)
	}

	// Table bound: a second session beyond MaxSessions is refused too.
	h2 := newHarness(t, Config{MaxSessions: 1})
	h2.create(t, crashSrc, nil)
	code = h2.call(t, "POST", "/v1/sessions", map[string]any{"source": crashSrc}, &errBody)
	if code != http.StatusTooManyRequests || errBody.Code != "server_saturated" {
		t.Errorf("create beyond MaxSessions: status %d code %q, want 429 server_saturated", code, errBody.Code)
	}
	// The bound is admission control, not a post-hoc check: a full table
	// refuses before compiling anything — even source that would not
	// compile is answered 429, not 400 compile_error.
	code = h2.call(t, "POST", "/v1/sessions", map[string]any{"source": "func main( {"}, &errBody)
	if code != http.StatusTooManyRequests || errBody.Code != "server_saturated" {
		t.Errorf("create beyond MaxSessions (bad source): status %d code %q, want 429 server_saturated (no compile)", code, errBody.Code)
	}
}

// TestRerunPoolNoDeadlock is the lock-ordering regression gate: re-run
// must take a worker slot before the session lock (the order every query
// uses). The reverse order deadlocked a Workers=1 pool — a query holding
// the only slot blocked on the session lock while a queued re-run held
// the lock waiting for the slot — so this hammers one session with
// interleaved re-runs and queries on a one-worker server and merely has
// to finish.
func TestRerunPoolNoDeadlock(t *testing.T) {
	h := newHarness(t, Config{Workers: 1, MaxQueue: 64})
	id := h.create(t, crashSrc, nil)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if i%2 == 0 {
					// 200 OK or 409 busy are both fine; hanging is not.
					h.call(t, "POST", "/v1/sessions/"+id+"/run", map[string]any{"seed": j}, nil)
				} else {
					h.call(t, "GET", "/v1/sessions/"+id+"/races", nil, nil)
					h.call(t, "GET", "/metrics", nil, nil)
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestBusy: while an exclusive operation would collide with an in-flight
// one, re-run answers 409/session_busy instead of queueing.
func TestBusy(t *testing.T) {
	h := newHarness(t, Config{})
	id := h.create(t, crashSrc, nil)
	h.srv.mu.Lock()
	ss := h.srv.sessions[id]
	h.srv.mu.Unlock()
	ss.mu.Lock() // simulate a long-running query holding the session
	defer ss.mu.Unlock()
	var errBody struct {
		Code string `json:"code"`
	}
	code := h.call(t, "POST", "/v1/sessions/"+id+"/run", map[string]any{"seed": 1}, &errBody)
	if code != http.StatusConflict || errBody.Code != "session_busy" {
		t.Errorf("rerun while busy: status %d code %q, want 409 session_busy", code, errBody.Code)
	}
	if got := h.metrics(t)["server.rejected.busy"]; got != 1 {
		t.Errorf("server.rejected.busy = %d, want 1", got)
	}
}

// TestErrorMapping pins the remaining HTTP mappings: malformed JSON and
// invalid options are 400s with distinct codes, compile failures are 400
// compile_error, unknown sessions 404.
func TestErrorMapping(t *testing.T) {
	h := newHarness(t, Config{})
	var errBody struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}

	resp, err := http.Post(h.ts.URL+"/v1/sessions", "application/json",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	_ = json.Unmarshal(data, &errBody)
	if resp.StatusCode != http.StatusBadRequest || errBody.Code != "invalid_options" {
		t.Errorf("malformed body: status %d code %q, want 400 invalid_options", resp.StatusCode, errBody.Code)
	}

	code := h.call(t, "POST", "/v1/sessions",
		map[string]any{"source": crashSrc, "quantum": -1}, &errBody)
	if code != http.StatusBadRequest || errBody.Code != "invalid_options" {
		t.Errorf("negative quantum: status %d code %q, want 400 invalid_options", code, errBody.Code)
	}

	code = h.call(t, "POST", "/v1/sessions",
		map[string]any{"source": "func main( {"}, &errBody)
	if code != http.StatusBadRequest || errBody.Code != "compile_error" {
		t.Errorf("syntax error: status %d code %q, want 400 compile_error", code, errBody.Code)
	}

	code = h.call(t, "POST", "/v1/sessions", map[string]any{"source": ""}, &errBody)
	if code != http.StatusBadRequest {
		t.Errorf("empty source: status %d, want 400", code)
	}

	code = h.call(t, "GET", "/v1/sessions/snope/races", nil, &errBody)
	if code != http.StatusNotFound || errBody.Code != "session_not_found" {
		t.Errorf("unknown session: status %d code %q, want 404 session_not_found", code, errBody.Code)
	}

	var health struct {
		Status string `json:"status"`
	}
	if code := h.call(t, "GET", "/healthz", nil, &health); code != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz: status %d body %+v", code, health)
	}
}

// TestJanitorEvicts covers the Start/Close path: a real (short-period)
// janitor evicts an idle session without test intervention.
func TestJanitorEvicts(t *testing.T) {
	srv := New(Config{SessionTTL: 10 * time.Millisecond})
	srv.Start()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"source": crashSrc})
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		srv.mu.Lock()
		n := len(srv.sessions)
		srv.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("janitor never evicted the idle session")
}

// TestMetricsGauges sanity-checks the derived gauges.
func TestMetricsGauges(t *testing.T) {
	h := newHarness(t, Config{Workers: 3})
	h.create(t, crashSrc, nil)
	counters := h.metrics(t)
	if got := counters["server.workers"]; got != 3 {
		t.Errorf("server.workers = %d, want 3", got)
	}
	if got := counters["server.queue.depth"]; got != 0 {
		t.Errorf("server.queue.depth = %d, want 0", got)
	}
	if got := counters["exec.steps"]; got <= 0 {
		t.Errorf("exec.steps = %d, want > 0 (live session stats must merge)", got)
	}
}

// TestStreamingRerun drives POST /run?stream=1: the response is NDJSON
// with incremental race events followed by one summary line whose report
// is byte-identical to the batch /races report over the same re-run, and
// the daemon's /metrics pick up the stream.* counters.
func TestStreamingRerun(t *testing.T) {
	wl := workloads.RacyCounter(3, 10, false)
	h := newHarness(t, Config{})
	id := h.create(t, wl.Src, map[string]any{"seed": int64(1), "quantum": 5})

	body, _ := json.Marshal(map[string]any{"seed": int64(2), "quantum": 1})
	resp, err := http.Post(h.ts.URL+"/v1/sessions/"+id+"/run?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream rerun: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	type line struct {
		Type    string `json:"type"`
		Race    string `json:"race"`
		Count   int    `json:"count"`
		Report  string `json:"report"`
		Batches int64  `json:"stream_batches"`
		Error   string `json:"error"`
	}
	var races []line
	var summary *line
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var l line
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("decode NDJSON line: %v", err)
		}
		switch l.Type {
		case "race":
			if summary != nil {
				t.Error("race event after the summary line")
			}
			races = append(races, l)
		case "summary":
			cp := l
			summary = &cp
		default:
			t.Fatalf("unexpected line type %q (error=%q)", l.Type, l.Error)
		}
	}
	if summary == nil {
		t.Fatal("no summary line")
	}
	if len(races) == 0 || summary.Count == 0 {
		t.Fatalf("streamed %d race events, summary count %d", len(races), summary.Count)
	}
	if summary.Batches == 0 {
		t.Error("summary carries no stream_batches counter")
	}

	// The session now holds the monitored execution: the batch /races
	// report over it must equal the streamed summary's report.
	var batch struct {
		Report string `json:"report"`
	}
	if code := h.call(t, "GET", "/v1/sessions/"+id+"/races", nil, &batch); code != http.StatusOK {
		t.Fatalf("races after stream: status %d", code)
	}
	if batch.Report != summary.Report {
		t.Errorf("streamed report diverges from batch:\n--- streamed\n%s--- batch\n%s", summary.Report, batch.Report)
	}

	m := h.metrics(t)
	for _, key := range []string{"stream.batches", "stream.races.online", "stream.events.retired"} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics missing %s after a streaming re-run", key)
		}
	}
	if m["stream.races.online"] == 0 {
		t.Error("/metrics stream.races.online is zero after a racy streaming re-run")
	}
}

// TestStreamingRerunStopAtFirstRace exercises the early-abort knob over
// HTTP: the summary reports stopped_at_race.
func TestStreamingRerunStopAtFirstRace(t *testing.T) {
	wl := workloads.RacyTicker(3, 200)
	h := newHarness(t, Config{})
	id := h.create(t, wl.Src, map[string]any{"quantum": 5})

	body, _ := json.Marshal(map[string]any{"quantum": 3, "stop_at_first_race": true})
	resp, err := http.Post(h.ts.URL+"/v1/sessions/"+id+"/run?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stopped bool
	var sawSummary bool
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var l struct {
			Type          string `json:"type"`
			StoppedAtRace bool   `json:"stopped_at_race"`
			Error         string `json:"error"`
		}
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if l.Type == "error" {
			t.Fatalf("stream error: %s", l.Error)
		}
		if l.Type == "summary" {
			sawSummary, stopped = true, l.StoppedAtRace
		}
	}
	if !sawSummary {
		t.Fatal("no summary line")
	}
	if !stopped {
		t.Error("summary does not report stopped_at_race")
	}
}

// TestSessionQuestionsNeverHydrate drives a session whose program came
// from the shared artifact cache through create → races → flowback →
// streamed re-run and checks that no step rebuilt the program's semantic
// layers, and that the answers equal a fresh compile's.
func TestSessionQuestionsNeverHydrate(t *testing.T) {
	wl := workloads.RacyCounter(3, 10, false)
	h := newHarness(t, Config{CacheDir: t.TempDir()})
	h.create(t, wl.Src, map[string]any{"seed": int64(1), "quantum": 5}) // stores the entry
	id := h.create(t, wl.Src, map[string]any{"seed": int64(1), "quantum": 5})
	ss, err := h.srv.lookup(id, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if ss.sess.Program().CompileStats().Counter("compile.cache.hits") != 1 {
		t.Fatal("second create missed the artifact cache")
	}
	hydrated := func(step string) {
		t.Helper()
		if ss.sess.Program().Artifacts().Hydrated() {
			t.Fatalf("%s hydrated the cache-loaded program", step)
		}
	}
	hydrated("create")

	direct, err := ppd.OpenSession("t.mpl", wl.Src, ppd.Options{Seed: 1, Quantum: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	var races struct {
		Report string `json:"report"`
	}
	if code := h.call(t, "GET", "/v1/sessions/"+id+"/races", nil, &races); code != http.StatusOK {
		t.Fatalf("races: status %d", code)
	}
	hydrated("races")
	if want, _ := direct.RaceReport(); races.Report != want {
		t.Errorf("races differ from a fresh compile:\n got: %s\nwant: %s", races.Report, want)
	}

	var fb struct {
		Fragment string `json:"fragment"`
	}
	if code := h.call(t, "POST", "/v1/sessions/"+id+"/flowback", map[string]any{"pid": 1, "depth": 4}, &fb); code != http.StatusOK {
		t.Fatalf("flowback: status %d", code)
	}
	hydrated("flowback")
	if want, _ := direct.Flowback(1, 4); fb.Fragment != want {
		t.Errorf("flowback differs from a fresh compile:\n got: %s\nwant: %s", fb.Fragment, want)
	}

	body, _ := json.Marshal(map[string]any{"seed": int64(2), "quantum": 1})
	resp, err := http.Post(h.ts.URL+"/v1/sessions/"+id+"/run?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream rerun: status %d", resp.StatusCode)
	}
	hydrated("streamed re-run")
}
