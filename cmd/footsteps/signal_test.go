//go:build unix

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"footsteps/internal/trace"
	"footsteps/internal/wire"
)

// TestServeIngressReplay serves a quick world, drives a batch of
// register, login, post, follow and like envelopes at /v1/batch,
// delivers a real SIGTERM, and requires a clean drain (exit 0, a
// Stream line) and an ingress replay that matches the live capture
// byte-for-byte.
func TestServeIngressReplay(t *testing.T) {
	dir := t.TempDir()
	fing := filepath.Join(dir, "serve.fing")
	fsev := filepath.Join(dir, "serve.fsev")

	pr, pw := io.Pipe()
	serving := make(chan string, 1)
	stdout := make(chan string, 1)
	go func() {
		// Reads every line run prints, so its writes never block, and
		// announces the listen address.
		var all strings.Builder
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			all.WriteString(sc.Text() + "\n")
			if rest, ok := strings.CutPrefix(sc.Text(), "Serving on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				serving <- addr
			}
		}
		stdout <- all.String()
	}()
	var stderr bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		code := run([]string{"-quick", "-seed", "7", "-serve-addr", "127.0.0.1:0",
			"-ingress-log", fing, "-record", fsev, "serve"}, pw, &stderr)
		pw.Close()
		exit <- code
	}()

	var base string
	select {
	case base = <-serving:
	case code := <-exit:
		t.Fatalf("serve exited %d before listening:\n%s\n%s", code, <-stdout, stderr.String())
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not announce its address within 60s")
	}
	outs := postBatch(t, base,
		`{"v":1,"op":"register","username":"cli-a","password":"pw"}`,
		`{"v":1,"op":"register","username":"cli-b","password":"pw"}`,
		`{"v":1,"op":"login","username":"cli-a","password":"pw"}`,
		`{"v":1,"op":"login","username":"cli-b","password":"pw"}`)
	b, tokA, tokB := outs[1].Account, outs[2].Token, outs[3].Token
	post := postBatch(t, base, fmt.Sprintf(`{"v":1,"op":"post","token":%q,"tags":["cli"]}`, tokB))[0].Post
	postBatch(t, base,
		fmt.Sprintf(`{"v":1,"op":"follow","token":%q,"target":%d}`, tokA, b),
		fmt.Sprintf(`{"v":1,"op":"like","token":%q,"post":%d}`, tokA, post))

	// run registered its signal handler before it announced the address.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var code int
	select {
	case code = <-exit:
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not drain within 60s of SIGTERM")
	}
	out := <-stdout
	if code != 0 {
		t.Fatalf("serve exited %d after SIGTERM:\n%s\n%s", code, out, stderr.String())
	}
	m := streamLine.FindStringSubmatch(out)
	if m == nil || m[1] == "0" {
		t.Fatalf("serve printed no Stream line with events:\n%s", out)
	}

	out = mustRun(t, "-quick", "-seed", "7", "-ingress-log", fing, "-against", fsev, "replay")
	if want := "Ingress replay: 7 envelopes applied, " + m[1] + " events, stream sha256 " + m[2] + "\n"; !strings.Contains(out, want) {
		t.Errorf("ingress replay lacks %q:\n%s", want, out)
	}
	if !strings.Contains(out, "Ingress replay matches "+fsev+" byte-for-byte.\n") {
		t.Errorf("ingress replay:\n%s", out)
	}
}

// postBatch posts NDJSON envelopes to /v1/batch and requires every
// outcome to be allowed.
func postBatch(t *testing.T, base string, lines ...string) []wire.Outcome {
	t.Helper()
	resp, err := http.Post(base+"/v1/batch", "application/x-ndjson", strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var outs []wire.Outcome
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var out wire.Outcome
		if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
			t.Fatalf("outcome %q: %v", sc.Text(), err)
		}
		if out.Status != wire.StatusAllowed {
			t.Fatalf("envelope %q: %+v", lines[len(outs)], out)
		}
		outs = append(outs, out)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(lines) {
		t.Fatalf("%d outcomes for %d envelopes", len(outs), len(lines))
	}
	return outs
}

// TestInterruptedTraceReadable interrupts a traced run in a process of
// its own. It must exit 130, leave a trace that reads to whole spans or
// to a truncation error, and (under -race) report no data race: the
// signal path must not touch the trace writer the world goroutine owns.
func TestInterruptedTraceReadable(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ftrc := filepath.Join(t.TempDir(), "run.ftrc")
	cmd := exec.Command(exe, "-quick", "-trace", ftrc, "business")
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(stdout)
	first, err := br.ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("no first line: %v\n%s", err, stderr.String())
	}
	// Interrupt once the tracer has flushed spans past its header: the
	// file grows in 64 KiB buffer flushes while the run steps.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, err := os.Stat(ftrc); err == nil && st.Size() > 64<<10 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("the trace never grew past 64 KiB\n%s", stderr.String())
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, br)
	err = cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Fatalf("interrupted run after %q: %v, want exit 130\n%s", first, err, stderr.String())
	}
	if strings.Contains(stderr.String(), "DATA RACE") {
		t.Fatalf("data race on the signal path:\n%s", stderr.String())
	}

	f, err := os.Open(ftrc)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatalf("interrupted trace: %v", err)
	}
	for {
		if _, err = r.Next(); err != nil {
			break
		}
	}
	var te *trace.TraceTruncatedError
	if err != io.EOF && !errors.As(err, &te) || r.Spans() == 0 {
		t.Fatalf("interrupted trace after %d spans: %v, want spans, then io.EOF or a *TraceTruncatedError", r.Spans(), err)
	}
	t.Logf("interrupted trace: %d whole spans, then %v", r.Spans(), err)
}
