package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"ppd/internal/server"
)

// serve: two HTTP clients against an in-process server.Handler on a
// loopback listener with a warm shared artifact cache. Each round is
// create → races → flowback → monitored re-run → delete over triage's
// program draw. Every answer is checked against the in-process path for
// the same (source, seed, quantum); the server has no restore endpoint,
// so the round's ReplayTo and bare run are asked of that in-process
// reference.
type serve struct {
	fams   []family
	dir    string
	srv    *server.Server
	hs     *http.Server
	served chan error // Serve's result, once hs has stopped
	base   string
	http   *http.Client
}

func setupServe(c *client, cfg config, dir string) (instance, error) {
	fams, err := triageFamilies(cfg.root)
	if err != nil {
		return nil, err
	}
	if err := warm(c, fams, dir); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Config{CacheDir: dir})
	srv.Start()
	s := &serve{
		fams:   fams,
		dir:    dir,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		http:   &http.Client{Timeout: time.Minute},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *serve) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // stops the listener and waits for in-flight requests
	<-s.served
	s.http.CloseIdleConnections()
	s.srv.Close()
}

func (s *serve) programs() []*program { return firstOfEach(s.fams) }

// rejected reports the server's refusals: requests answered 429
// (saturated) or 409 (busy).
func (s *serve) rejected() int64 {
	m := s.srv.Metrics()
	return m.Counter("server.rejected.saturated") + m.Counter("server.rejected.busy")
}

type createReply struct {
	ID     string `json:"id"`
	Output string `json:"output"`
	Failed string `json:"failed"`
	Procs  int    `json:"procs"`
}

type racesReply struct {
	Count  int    `json:"count"`
	Report string `json:"report"`
}

type flowbackReply struct {
	Fragment string `json:"fragment"`
}

type streamLine struct {
	Type   string `json:"type"`
	Count  int    `json:"count"`
	Report string `json:"report"`
	Error  string `json:"error"`
}

func (s *serve) round(c *client) {
	p := c.draw(s.fams)
	seed := c.schedSeed()

	var created createReply
	var races racesReply
	sm, err := c.timed(qRaces, func() error {
		body := map[string]any{"filename": p.name, "source": p.src, "seed": seed}
		if err := s.call(c, "create", "POST", "/v1/sessions", body, &created); err != nil {
			return err
		}
		return s.call(c, "races", "GET", "/v1/sessions/"+created.ID+"/races", nil, &races)
	})
	if err == nil {
		err = s.checkRaces(c, p, seed, created, races)
	}
	c.record(qRaces, sm, err)
	if created.ID == "" {
		return
	}

	pid := c.pid(p, created.Procs)
	c.ask(qFlowback, func() error {
		var fb flowbackReply
		if err := s.call(c, "flowback", "POST", "/v1/sessions/"+created.ID+"/flowback",
			map[string]any{"pid": pid, "depth": flowbackDepth}, &fb); err != nil {
			return err
		}
		if fb.Fragment == "" {
			return fmt.Errorf("%s: empty flowback", p.name)
		}
		return nil
	})

	var summary streamLine
	sm, err = c.timed(qVerdict, func() error {
		return s.call(c, "run", "POST", "/v1/sessions/"+created.ID+"/run?stream=1",
			map[string]any{"seed": c.schedSeed()}, &summary)
	})
	if err == nil && (summary.Count > 0) != p.racy {
		err = fmt.Errorf("%s: monitored run found %d races, built racy=%t", p.name, summary.Count, p.racy)
	}
	c.record(qVerdict, sm, err)

	root := c.tr.begin("delete")
	err = s.call(c, "delete", "DELETE", "/v1/sessions/"+created.ID, nil, nil)
	c.tr.end(root)
	if err != nil {
		c.fault(err)
	}
}

// checkRaces checks the server's races answer: the report must be
// byte-identical to the in-process RaceReport for the same source, seed
// and quantum, and the run must do what the program was built to do. The
// in-process reference session then answers the round's replay question.
func (s *serve) checkRaces(c *client, p *program, seed int64, created createReply, races racesReply) error {
	root := c.tr.begin("reference")
	ref, err := c.raceSession(p, seed, s.dir)
	c.tr.end(root)
	if err != nil {
		return fmt.Errorf("in-process reference: %w", err)
	}
	bareOut := c.bare(ref, seed)
	if races.Report != ref.report {
		return fmt.Errorf("%s: served race report differs from the in-process one:\n%s\nvs\n%s", p.name, races.Report, ref.report)
	}
	if err := checkRun(p, created.Output, bareOut, created.Failed, false, races.Count); err != nil {
		return err
	}
	pid := 0
	if f := ref.ctl.Failure; f != nil {
		pid = f.PID
	}
	c.askReplay(ref, pid, len(ref.exec.Log().Books[pid].Records)/2)
	c.collect(ref)
	return nil
}

// call sends one request with a "server" span around it and decodes the
// reply into out (for a streamed reply, its last line). endpoint tags the
// span.
func (s *serve) call(c *client, endpoint, method, path string, body, out any) error {
	sp := c.tr.begin("server")
	err := s.do(c.ctx, method, path, body, out)
	c.tr.end(sp)
	c.tr.tag(sp, endpoint)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

func (s *serve) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/x-ndjson") {
		return lastLine(data, out)
	}
	return json.Unmarshal(data, out)
}

// lastLine decodes the summary line that closes a streamed re-run.
func lastLine(data []byte, out any) error {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, len(data)+1)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var line streamLine
	if err := json.Unmarshal(last, &line); err != nil {
		return fmt.Errorf("stream summary: %w", err)
	}
	if line.Type != "summary" {
		return errors.New("stream ended without a summary: " + line.Error)
	}
	return json.Unmarshal(last, out)
}
