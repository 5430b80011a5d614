package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"footsteps/internal/core"
	"footsteps/internal/telemetry"
	"footsteps/internal/wire"
)

// The /v1 response golden pins the status line and body bytes of
// /v1/request and /v1/batch over accepted, rejected-at-parse,
// unknown-token, overloaded, oversize and shutting-down envelopes. The
// server's loop is not started: the test goroutine plays the world loop
// and drains at fixed simulated instants once a handler has admitted
// all it will, so every byte is a function of the script alone.
const v1Golden = "testdata/v1-responses.golden"

var writeV1Golden = flag.Bool("write-v1-golden", false, "rewrite "+v1Golden+" from the script in TestV1ResponseGolden")

// goldenQueueDepth is small enough that the script's first batch
// overflows it.
const goldenQueueDepth = 8

// goldenServer is a server whose world loop is the test goroutine.
type goldenServer struct {
	t     *testing.T
	s     *Server
	reg   *telemetry.Registry
	start time.Time
	hour  int
	out   bytes.Buffer
}

func newGoldenServer(t *testing.T, cfg core.Config) *goldenServer {
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	w := core.NewWorld(cfg)
	s, err := New(w, Settings{QueueDepth: goldenQueueDepth})
	if err != nil {
		t.Fatal(err)
	}
	s.accepting.Store(true)
	return &goldenServer{t: t, s: s, reg: reg, start: w.Sched.Clock().Now()}
}

// lines is the number of envelope lines the handlers have settled at
// admission: admitted, rejected at parse, or overloaded.
func (g *goldenServer) lines() int64 {
	return g.reg.Counter("server.requests").Value() + g.reg.Counter("server.rejected").Value() +
		g.reg.Counter("server.overloaded").Value()
}

// goldenCall is one handler invocation in flight.
type goldenCall struct {
	g    *goldenServer
	path string
	want int64
	rec  *httptest.ResponseRecorder
	done chan struct{}
}

// begin runs the handler for path on body in its own goroutine; the
// handler will settle n envelope lines at admission.
func (g *goldenServer) begin(path string, body io.Reader, n int64) *goldenCall {
	h := g.s.handleRequest
	if path == "/v1/batch" {
		h = g.s.handleBatch
	}
	c := &goldenCall{g: g, path: path, want: g.lines() + n, rec: httptest.NewRecorder(), done: make(chan struct{})}
	req := httptest.NewRequest(http.MethodPost, path, body)
	go func() {
		defer close(c.done)
		h(c.rec, req)
	}()
	return c
}

// settle waits until the handler has settled all its lines.
func (c *goldenCall) settle() {
	deadline := time.Now().Add(10 * time.Second)
	for c.g.lines() < c.want {
		if time.Now().After(deadline) {
			c.g.t.Fatalf("%s: settled %d lines, want %d", c.path, c.g.lines(), c.want)
		}
		time.Sleep(time.Millisecond)
	}
}

// end drains at the next hour if drain is set, waits for the handler
// and records its response.
func (c *goldenCall) end(drain bool) []byte {
	g := c.g
	if drain {
		g.hour++
		g.s.drainAt(g.start.Add(time.Duration(g.hour) * time.Hour))
	}
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		g.t.Fatalf("%s: handler did not return", c.path)
	}
	fmt.Fprintf(&g.out, "=== POST %s %d %s\n", c.path, c.rec.Code, c.rec.Header().Get("Content-Type"))
	g.out.Write(c.rec.Body.Bytes())
	return c.rec.Body.Bytes()
}

// serve runs one call to completion.
func (g *goldenServer) serve(path, body string, n int64, drain bool) []byte {
	c := g.begin(path, strings.NewReader(body), n)
	c.settle()
	return c.end(drain)
}

func TestV1ResponseGolden(t *testing.T) {
	g := newGoldenServer(t, tinyConfig(59))
	token := func(body []byte) string {
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var out wire.Outcome
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatalf("outcome %q: %v", line, err)
			}
			if out.Token != "" {
				return out.Token
			}
		}
		t.Fatalf("no token in %q", body)
		return ""
	}

	// One envelope per request: accepted, rejected at parse, unknown
	// token, oversize.
	g.serve("/v1/request", `{"v":1,"id":1,"op":"register","username":"gold-a","password":"pw"}`, 1, true)
	tokA := token(g.serve("/v1/request", `{"v":1,"id":2,"op":"login","username":"gold-a","password":"pw"}`, 1, true))
	g.serve("/v1/request", `{"v":1,"id":3,"op":"<warp>&"}`, 1, false)
	g.serve("/v1/request", `{"v":2,"id":4,"op":"like"}`, 1, false)
	g.serve("/v1/request", `{{{`, 1, false)
	g.serve("/v1/request", `{"v":1,"id":5,"op":"like","token":"no-such-token","post":1}`, 1, true)
	g.serve("/v1/request", `{"v":1,"id":6,"op":"post","token":"`+tokA+`","tags":["l4l"]}`, 1, true)
	g.serve("/v1/request", `{"v":1,"op":"comment","token":"t","post":1,"text":"`+strings.Repeat("x", wire.MaxEnvelopeBytes)+`"}`, 1, false)

	// Two mixed batches that overflow the queue between them. The first
	// admits its six valid envelopes; the second admits two more, which
	// fills the queue, and its other three are overloaded. Parse
	// rejections and blank lines keep their places. Each batch fits in
	// one chunk, so every line is settled before the drain.
	batch := strings.Join([]string{
		`{"v":1,"id":10,"op":"register","username":"gold-b","password":"pw"}`,
		`{"v":1,"id":11,"op":"register","username":"gold-c","password":"pw","country":"BRA"}`,
		`{{{`,
		`{"v":1,"id":12,"op":"login","username":"gold-b","password":"pw","client":"a\u0001<b>&"}`,
		`{"v":2,"id":13,"op":"like"}`,
		``,
		`{"v":1,"id":14,"op":"like","token":"nope","post":1}`,
		"  \t" + `{"v":1,"id":15,"op":"login","username":"gold-c","password":"pw","api":"oauth"}` + " \r",
		`{"v":1,"id":16,"op":"register","username":"gold-a","password":"pw"}`,
	}, "\n") + "\n"
	first := g.begin("/v1/batch", strings.NewReader(batch), 8)
	first.settle()
	batch = strings.Join([]string{
		`{"v":1,"id":17,"op":"login","username":"gold-b","password":"wrong"}`,
		`{"v":1,"id":18,"op":"post","token":"t","tags":["1","2","3","4","5","6","7","8","9","10","11","12","13","14","15","16","17"]}`,
		`{"v":1,"id":19,"op":"follow","token":"` + tokA + `","target":1}`,
		`{"v":1,"id":20,"op":"register","username":"gold-d","password":"pw"}`,
		`{"v":1,"id":21,"op":"register","username":"gold-e","password":"pw"}`,
		`{"v":1,"id":22,"op":"login","username":"gold-a","password":"pw","api":"soap"}`,
		`{"v":1,"id":23,"op":"register","username":"gold-f","password":"pw"}`,
	}, "\n") + "\n"
	second := g.begin("/v1/batch", strings.NewReader(batch), 7)
	second.settle()
	// With the queue full, a single request is overloaded too.
	g.serve("/v1/request", `{"v":1,"id":30,"op":"register","username":"gold-g","password":"pw"}`, 1, false)
	tokB := token(first.end(true))
	second.end(false)

	// A batch of actions on live sessions, ending in a line longer than
	// the scanner allows: the lines before it are served, then one
	// too_large outcome closes the response.
	batch = strings.Join([]string{
		`{"v":1,"id":40,"op":"post","token":"` + tokB + `","tags":["gold"]}`,
		`{"v":1,"id":41,"op":"like","token":"` + tokA + `","post":1}`,
		`{"v":1,"id":42,"op":"comment","token":"` + tokB + `","post":1,"text":"<b>nice</b> & ` + "\xe2\x80\xa8" + `"}`,
		`{"v":1,"id":43,"op":"unfollow","token":"` + tokA + `","target":1}`,
		`{"v":1,"op":"follow","token":"` + tokB + `","target":2}`,
		strings.Repeat(" ", wire.MaxEnvelopeBytes+3),
		`{"v":1,"id":44,"op":"register","username":"gold-h","password":"pw"}`,
	}, "\n") + "\n"
	g.serve("/v1/batch", batch, 6, true)

	// Admission closed: every envelope is refused as shutting down.
	g.s.accepting.Store(false)
	g.serve("/v1/request", `{"v":1,"id":50,"op":"register","username":"gold-i","password":"pw"}`, 0, false)
	g.serve("/v1/batch", `{"v":1,"id":51,"op":"register","username":"gold-i","password":"pw"}`+"\n"+`{"v":1,"id":52,"op":"warp"}`+"\n", 1, false)

	if *writeV1Golden {
		if err := os.WriteFile(v1Golden, g.out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(v1Golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("response line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("responses have %d lines, golden has %d", len(gl), len(wl))
	}
}
