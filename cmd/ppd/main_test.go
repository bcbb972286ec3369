package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// withStdout captures os.Stdout while f runs (the subcommands write there).
func withStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	defer func() {
		w.Close()
		os.Stdout = old
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}

func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mpl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdCompile(t *testing.T) {
	path := writeProgram(t, `func main() { print(1); }`)
	out := withStdout(t, func() {
		if err := cmdCompile([]string{path}); err != nil {
			t.Errorf("compile: %v", err)
		}
	})
	for _, want := range []string{"compiled", "functions: 1", "e-blocks:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if err := cmdCompile([]string{"/nonexistent.mpl"}); err == nil {
		t.Error("expected error for missing file")
	}
	if err := cmdCompile(nil); err == nil {
		t.Error("expected usage error")
	}
}

func TestCmdRunModes(t *testing.T) {
	path := writeProgram(t, `func main() { print(6 * 7); }`)
	for _, mode := range []string{"run", "log", "trace"} {
		out := withStdout(t, func() {
			if err := cmdRun([]string{"-mode", mode, path}); err != nil {
				t.Errorf("mode %s: %v", mode, err)
			}
		})
		if !strings.Contains(out, "42") {
			t.Errorf("mode %s: output %q", mode, out)
		}
	}
	if err := cmdRun([]string{"-mode", "bogus", path}); err == nil {
		t.Error("expected error for unknown mode")
	}
	crash := writeProgram(t, `func main() { print(1 / 0); }`)
	if err := cmdRun([]string{crash}); err == nil {
		t.Error("expected runtime error to propagate")
	}
}

func TestCmdDump(t *testing.T) {
	path := writeProgram(t, `
var g = 2;
func f(a int) int { return a + g; }
func main() { print(f(1)); }`)
	out := withStdout(t, func() {
		if err := cmdDump([]string{"-code", path}); err != nil {
			t.Errorf("dump: %v", err)
		}
	})
	for _, want := range []string{"program database", "USED=", "func f", "loadg"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q", want)
		}
	}
}

func TestCmdDebugScripted(t *testing.T) {
	path := writeProgram(t, `
var d = 5;
func main() {
	var x = 10 / (d - 5);
	print(x);
}`)
	oldIn := os.Stdin
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdin = r
	go func() {
		io.WriteString(w, "summary\ngraph 3\nwhatif d=6\nquit\n")
		w.Close()
	}()
	defer func() { os.Stdin = oldIn }()

	out := withStdout(t, func() {
		if err := cmdDebug([]string{path}); err != nil {
			t.Errorf("debug: %v", err)
		}
	})
	for _, want := range []string{"division by zero", "(ppd)", "DISAPPEARS"} {
		if !strings.Contains(out, want) {
			t.Errorf("debug session missing %q:\n%s", want, out)
		}
	}
}

func TestLoadFileErrors(t *testing.T) {
	if _, err := loadFile("/no/such/file.mpl"); err == nil {
		t.Error("expected error")
	}
	if _, err := compileFile(writeProgram(t, `func main() { x = ; }`)); err == nil {
		t.Error("expected compile error")
	}
}

func TestCmdStats(t *testing.T) {
	path := writeProgram(t, `
shared counter;
sem done = 0;
func w() { counter = counter + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); print(counter); }`)

	out := withStdout(t, func() {
		if err := cmdStats([]string{"-quantum", "1", path}); err != nil {
			t.Errorf("stats: %v", err)
		}
	})
	for _, want := range []string{"counters:", "timers:",
		"compile.instrs", "exec.steps", "exec.log.bytes", "race.pairs", "debug.emulate"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}

	jsonOut := withStdout(t, func() {
		if err := cmdStats([]string{"-quantum", "1", "-json", path}); err != nil {
			t.Errorf("stats -json: %v", err)
		}
	})
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(jsonOut), &snap); err != nil {
		t.Fatalf("stats -json produced invalid JSON: %v\n%s", err, jsonOut)
	}
	if snap.Counters["exec.steps"] == 0 || snap.Counters["race.races"] == 0 {
		t.Errorf("JSON counters incomplete: %v", snap.Counters)
	}

	if err := cmdStats(nil); err == nil {
		t.Error("expected usage error")
	}
	if err := cmdStats([]string{"/nonexistent.mpl"}); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestCmdVet(t *testing.T) {
	racy := writeProgram(t, `
shared SV;
sem done = 0;
func w() { SV = SV + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); print(SV); }`)
	clean := writeProgram(t, `func main() { print(1); }`)

	var out bytes.Buffer
	failed, err := runVet([]string{racy}, &out)
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	if failed {
		t.Error("without -strict a warning must not fail the run")
	}
	for _, want := range []string{"[race-candidate]", "warning", "SV"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("vet output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	failed, err = runVet([]string{"-strict", racy}, &out)
	if err != nil || !failed {
		t.Errorf("-strict on a warning must fail (failed=%v err=%v)", failed, err)
	}

	out.Reset()
	failed, err = runVet([]string{"-strict", clean}, &out)
	if err != nil || failed {
		t.Errorf("-strict on a clean program must pass (failed=%v err=%v)", failed, err)
	}
	if out.String() != "no diagnostics\n" {
		t.Errorf("clean program output: %q", out.String())
	}

	out.Reset()
	if _, err := runVet([]string{"-json", racy}, &out); err != nil {
		t.Fatalf("vet -json: %v", err)
	}
	var rep struct {
		Diagnostics []struct {
			Code string `json:"code"`
			Pos  string `json:"pos"`
		} `json:"diagnostics"`
		Warnings int `json:"warnings"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("vet -json produced invalid JSON: %v\n%s", err, out.String())
	}
	if rep.Warnings == 0 || len(rep.Diagnostics) == 0 || rep.Diagnostics[0].Pos == "" {
		t.Errorf("vet -json incomplete: %s", out.String())
	}

	out.Reset()
	if _, err := runVet([]string{"-timings", racy}, &out); err != nil {
		t.Fatalf("vet -timings: %v", err)
	}
	for _, want := range []string{"pass racecand", "pass total"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("vet -timings missing %q:\n%s", want, out.String())
		}
	}

	if _, err := runVet(nil, &out); err == nil {
		t.Error("expected usage error")
	}
	if _, err := runVet([]string{"/nonexistent.mpl"}, &out); err == nil {
		t.Error("expected error for missing file")
	}
}

// TestNewHTTPServerTimeouts pins the daemon's connection deadlines: a
// client trickling headers or parking an idle connection is cut off, while
// responses stay unbounded so a long answer is never truncated.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != h {
		t.Errorf("addr/handler not wired: %q %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("read/idle deadlines unset: header %v, read %v, idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want unset", srv.WriteTimeout)
	}
}
