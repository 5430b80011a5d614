package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/telemetry"
	"footsteps/internal/wire"
)

func startServer(t *testing.T, cfg core.Config, set Settings) (*Server, *core.World) {
	t.Helper()
	w := core.NewWorld(cfg)
	s, err := New(w, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, w
}

func postJSON(t *testing.T, url string, body []byte) (int, wire.Outcome) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out wire.Outcome
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode outcome: %v", err)
	}
	return resp.StatusCode, out
}

func TestServeHTTPRequestFlow(t *testing.T) {
	s, _ := startServer(t, tinyConfig(31), Settings{})
	base := "http://" + s.Addr()

	code, out := postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, ID: 5, Op: wire.OpRegister, Username: "net-alice", Password: "pw"}))
	if code != http.StatusOK || out.Status != wire.StatusAllowed || out.ID != 5 {
		t.Fatalf("register: %d %+v", code, out)
	}
	_, login := postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpLogin, Username: "net-alice", Password: "pw"}))
	if login.Status != wire.StatusAllowed || login.Token == "" {
		t.Fatalf("login: %+v", login)
	}
	_, post := postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpPost, Token: login.Token}))
	if post.Status != wire.StatusAllowed || post.Post == 0 {
		t.Fatalf("post: %+v", post)
	}

	// Envelope-level rejection: HTTP 400 with a typed code.
	code, out = postJSON(t, base+"/v1/request", []byte(`{"v":1,"op":"warp"}`))
	if code != http.StatusBadRequest || out.Code != wire.CodeUnknownOp {
		t.Fatalf("unknown op: %d %+v", code, out)
	}
	// Unknown token: HTTP 401.
	code, out = postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpLike, Token: "nope", Post: 1}))
	if code != http.StatusUnauthorized || out.Code != wire.CodeUnknownToken {
		t.Fatalf("unknown token: %d %+v", code, out)
	}

	// Health.
	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
}

func TestServeBatchNDJSON(t *testing.T) {
	s, _ := startServer(t, tinyConfig(37), Settings{})
	base := "http://" + s.Addr()

	var in bytes.Buffer
	in.Write(mustJSON(t, wire.Request{V: 1, ID: 1, Op: wire.OpRegister, Username: "b-1", Password: "pw"}))
	in.WriteByte('\n')
	in.Write(mustJSON(t, wire.Request{V: 1, ID: 2, Op: wire.OpLogin, Username: "b-1", Password: "pw"}))
	in.WriteByte('\n')
	in.WriteString(`{"v":1,"id":3,"op":"warp"}` + "\n") // rejected inline, order preserved
	in.Write(mustJSON(t, wire.Request{V: 1, ID: 4, Op: wire.OpRegister, Username: "b-2", Password: "pw"}))
	in.WriteByte('\n')

	resp, err := http.Post(base+"/v1/batch", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var outs []wire.Outcome
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var out wire.Outcome
		if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		outs = append(outs, out)
	}
	if len(outs) != 4 {
		t.Fatalf("got %d outcomes, want 4: %+v", len(outs), outs)
	}
	for i, want := range []uint64{1, 2, 3, 4} {
		if outs[i].ID != want {
			t.Fatalf("outcome order broken: %+v", outs)
		}
	}
	if outs[0].Status != wire.StatusAllowed || outs[1].Token == "" || outs[2].Code != wire.CodeUnknownOp || outs[3].Status != wire.StatusAllowed {
		t.Fatalf("outcomes: %+v", outs)
	}
}

func TestServeTelemetryAndMetricz(t *testing.T) {
	cfg := tinyConfig(41)
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	s, _ := startServer(t, cfg, Settings{})
	base := "http://" + s.Addr()

	postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpRegister, Username: "m-1", Password: "pw"}))
	postJSON(t, base+"/v1/request", []byte(`{"v":1,"op":"warp"}`))

	if got := reg.Counter("server.requests").Value(); got != 1 {
		t.Errorf("server.requests = %d, want 1", got)
	}
	if got := reg.Counter("server.rejected").Value(); got != 1 {
		t.Errorf("server.rejected = %d, want 1", got)
	}
	if got := reg.Counter("server.applied").Value(); got != 1 {
		t.Errorf("server.applied = %d, want 1", got)
	}
	if reg.Histogram("server.latency.request", telemetry.DurationBuckets).Count() < 2 {
		t.Error("request latency histogram empty")
	}
	if reg.Histogram("server.enqueue.wait", telemetry.DurationBuckets).Count() < 1 {
		t.Error("enqueue wait histogram empty")
	}

	resp, err := http.Get(base + "/metricz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metricz: %v %v", err, resp)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte("server.requests")) {
		t.Errorf("metricz missing server rows: %s", body)
	}
}

// wsDial performs a minimal RFC 6455 client handshake and returns the
// raw connection.
func wsDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	req := "GET /v1/events HTTP/1.1\r\n" +
		"Host: " + addr + "\r\n" +
		"Connection: Upgrade\r\n" +
		"Upgrade: websocket\r\n" +
		"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil || !strings.Contains(status, "101") {
		t.Fatalf("ws handshake: %q %v", status, err)
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
	}
	if n := br.Buffered(); n > 0 {
		t.Fatalf("unexpected %d buffered bytes after handshake", n)
	}
	return conn
}

// readTextFrame reads one unmasked server text frame.
func readTextFrame(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	hdr := make([]byte, 2)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		t.Fatal(err)
	}
	if hdr[0] != 0x81 {
		t.Fatalf("frame header %#x, want FIN+text", hdr[0])
	}
	n := int(hdr[1] & 0x7f)
	switch n {
	case 126:
		ext := make([]byte, 2)
		if _, err := io.ReadFull(conn, ext); err != nil {
			t.Fatal(err)
		}
		n = int(ext[0])<<8 | int(ext[1])
	case 127:
		ext := make([]byte, 8)
		if _, err := io.ReadFull(conn, ext); err != nil {
			t.Fatal(err)
		}
		n = 0
		for _, b := range ext {
			n = n<<8 | int(b)
		}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestServeWSEventStream(t *testing.T) {
	s, _ := startServer(t, tinyConfig(43), Settings{})
	base := "http://" + s.Addr()
	conn := wsDial(t, s.Addr())
	defer conn.Close()

	// A client string with a control byte and HTML-sensitive bytes must
	// still reach subscribers as valid JSON.
	const oddClient = "a\x01<b>"
	postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpRegister, Username: "ws-1", Password: "pw"}))
	for _, client := range []string{"", oddClient} {
		_, login := postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpLogin, Username: "ws-1", Password: "pw", Client: client}))
		if login.Token == "" {
			t.Fatalf("login: %+v", login)
		}
	}

	// Each login emits a platform event; the subscriber must see it as
	// wire JSON. (Organic events may arrive first; scan for ours.)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	seen := map[string]bool{}
	for i := 0; i < 10000 && len(seen) < 2; i++ {
		var ev wire.Event
		frame := readTextFrame(t, conn)
		if err := json.Unmarshal(frame, &ev); err != nil {
			t.Fatalf("frame %q: %v", frame, err)
		}
		if ev.Action == "login" && (ev.Client == DefaultClient || ev.Client == oddClient) {
			if ev.Outcome != wire.StatusAllowed || ev.Seq == 0 {
				t.Fatalf("login event: %+v", ev)
			}
			seen[ev.Client] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("login events seen on the WS stream: %v, want clients %q and %q", seen, DefaultClient, oddClient)
	}
}

func TestServeGracefulShutdownAndReplay(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "ingress.fing")

	cfg := tinyConfig(47)

	// Live run: capture the FSEV1 stream from world construction on.
	w := core.NewWorld(cfg)
	var live bytes.Buffer
	liveWriter, err := eventio.NewWriter(&live)
	if err != nil {
		t.Fatal(err)
	}
	liveWriter.Attach(w.Plat.Log())
	s, err := New(w, Settings{IngressLog: logPath})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpRegister, Username: "r-1", Password: "pw"}))
	_, login := postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpLogin, Username: "r-1", Password: "pw"}))
	postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpPost, Token: login.Token, Tags: []string{"tag"}}))
	var batch bytes.Buffer
	for i := 0; i < 50; i++ {
		batch.Write(mustJSON(t, wire.Request{V: 1, ID: uint64(i), Op: wire.OpRegister, Username: fmt.Sprintf("r-batch-%d", i), Password: "pw"}))
		batch.WriteByte('\n')
	}
	resp, err := http.Post(base+"/v1/batch", "application/x-ndjson", &batch)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := liveWriter.Flush(); err != nil {
		t.Fatal(err)
	}

	// After shutdown the listener is gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after Shutdown")
	}

	// Replay: fresh world, same config, drive it from the ingress log.
	logData, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	w2 := core.NewWorld(cfg)
	var replayed bytes.Buffer
	replayWriter, err := eventio.NewWriter(&replayed)
	if err != nil {
		t.Fatal(err)
	}
	replayWriter.Attach(w2.Plat.Log())
	applied, err := ReplayIngressLog(w2, bytes.NewReader(logData))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if applied != 53 {
		t.Errorf("replay applied %d envelopes, want 53", applied)
	}
	if err := replayWriter.Flush(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Fatalf("FSEV1 streams diverge: live %d bytes (sha %x), replay %d bytes (sha %x)",
			live.Len(), sha256.Sum256(live.Bytes()), replayed.Len(), sha256.Sum256(replayed.Bytes()))
	}
}

func TestServeOverloadedBackpressure(t *testing.T) {
	w := core.NewWorld(tinyConfig(53))
	s, err := New(w, Settings{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the loop never drains, so the second push must fail
	// with the typed overload error.
	s.accepting.Store(true)
	c := getCall()
	s.stage(c, []byte(`{"v":1,"op":"register","username":"a","password":"b"}`))
	s.stage(c, []byte(`{"v":1,"id":2,"op":"register","username":"c","password":"d"}`))
	if len(c.envs) != 2 {
		t.Fatalf("staged %d envelopes, want 2", len(c.envs))
	}
	if werr := s.submit(c, 0); werr != nil {
		t.Fatalf("first submit: %v", werr)
	}
	if werr := s.submit(c, 1); werr == nil || werr.Code != wire.CodeOverloaded {
		t.Fatalf("second submit: %v", werr)
	}
}

// errAfter yields r's bytes, then err in place of io.EOF: a client that
// goes away mid-body.
type errAfter struct {
	r   io.Reader
	err error
}

func (e *errAfter) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		err = e.err
	}
	return n, err
}

// registerLines returns n register envelopes for fresh usernames.
func registerLines(prefix string, n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf(`{"v":1,"id":%d,"op":"register","username":"%s-%d","password":"pw"}`, i+1, prefix, i)
	}
	return lines
}

// TestServeBatchClientGoneMidBody: a batch whose body breaks off still
// has its whole lines applied and answered, and its arena is not handed
// to another request while those envelopes wait in the queue.
func TestServeBatchClientGoneMidBody(t *testing.T) {
	g := newGoldenServer(t, tinyConfig(61))
	var logBuf bytes.Buffer
	lw, err := wire.NewLogWriter(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	g.s.logw = lw

	gone, next := registerLines("gone", 3), registerLines("next", 3)
	ca := g.begin("/v1/batch", &errAfter{strings.NewReader(strings.Join(gone, "\n") + "\n"), io.ErrUnexpectedEOF}, 4)
	ca.settle()
	// The first batch's envelopes are queued, not applied: a second
	// batch admitted now must stage into an arena of its own.
	cb := g.begin("/v1/batch", strings.NewReader(strings.Join(next, "\n")), 3)
	cb.settle()
	outA, outB := ca.end(true), cb.end(false)

	check := func(name string, body []byte, want int, tail wire.Code) {
		t.Helper()
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		if len(lines) != want {
			t.Fatalf("%s: %d outcome lines, want %d:\n%s", name, len(lines), want, body)
		}
		for i, line := range lines {
			var out wire.Outcome
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatalf("%s line %d: %v", name, i, err)
			}
			if i == 3 && tail != "" {
				if out.Code != tail {
					t.Fatalf("%s: last line %s, want code %s", name, line, tail)
				}
				continue
			}
			if out.Status != wire.StatusAllowed || out.ID != uint64(i+1) || out.Account == 0 {
				t.Fatalf("%s line %d: %s", name, i, line)
			}
		}
	}
	check("broken body", outA, 4, wire.CodeTooLarge)
	check("second batch", outB, 3, "")

	if err := lw.End(0); err != nil {
		t.Fatal(err)
	}
	lr, err := wire.NewLogReader(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := lr.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := append(gone, next...)
	if len(rec.Envelopes) != len(want) {
		t.Fatalf("logged %d envelopes, want %d", len(rec.Envelopes), len(want))
	}
	for i, env := range rec.Envelopes {
		if string(env) != want[i] {
			t.Fatalf("logged envelope %d = %s, want %s", i, env, want[i])
		}
	}
}

// TestServeBatchLongerThanQueue: a batch several drains long, posted
// alone, is admitted in full however fast its handler admits, even
// when it holds more envelopes than the queue, and whether the queue is
// deeper or shallower than one drain.
func TestServeBatchLongerThanQueue(t *testing.T) {
	for _, tc := range []struct{ depth, lines int }{
		{DefaultMaxBatch, 2*DefaultMaxBatch + 10},
		{64, 1000},
	} {
		t.Run(fmt.Sprintf("depth-%d", tc.depth), func(t *testing.T) {
			s, _ := startServer(t, tinyConfig(71), Settings{QueueDepth: tc.depth})
			resp, err := http.Post("http://"+s.Addr()+"/v1/batch", "application/x-ndjson",
				strings.NewReader(strings.Join(registerLines("long", tc.lines), "\n")))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			got := 0
			for ; sc.Scan(); got++ {
				var out wire.Outcome
				if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
					t.Fatalf("outcome %q: %v", sc.Bytes(), err)
				}
				if out.Status != wire.StatusAllowed || out.ID != uint64(got+1) {
					t.Fatalf("outcome %d: %s", got, sc.Bytes())
				}
			}
			if got != tc.lines {
				t.Fatalf("%d outcomes, want %d", got, tc.lines)
			}
		})
	}
}

// TestServeShutdownSplitsBatch: admission closes between two chunks of
// one batch. The first chunk is applied and answered, the second is
// refused as shutting down, the handler returns, and the ingress log
// replays to the live FSEV1 stream. The test goroutine plays the world
// loop, so the split falls at the same line on every run.
func TestServeShutdownSplitsBatch(t *testing.T) {
	cfg := tinyConfig(73)
	g := newGoldenServer(t, cfg)
	var live bytes.Buffer
	liveWriter, err := eventio.NewWriter(&live)
	if err != nil {
		t.Fatal(err)
	}
	liveWriter.Attach(g.s.w.Plat.Log())
	var logBuf bytes.Buffer
	lw, err := wire.NewLogWriter(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	g.s.logw = lw

	chunk := g.s.chunkLines
	n := chunk + chunk/2
	c := g.begin("/v1/batch", strings.NewReader(strings.Join(registerLines("split", n), "\n")), int64(chunk))
	c.settle()
	// The first chunk is queued and its handler waits for it; close
	// admission before the drain wakes it to admit the second.
	g.s.accepting.Store(false)
	body := c.end(true)
	end := g.start.Add(time.Duration(g.hour) * time.Hour)

	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("%d outcome lines, want %d:\n%s", len(lines), n, body)
	}
	for i, line := range lines {
		var out wire.Outcome
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		applied := out.Status == wire.StatusAllowed && out.Account != 0
		refused := out.Code == wire.CodeShuttingDown
		if out.ID != uint64(i+1) || (i < chunk) != applied || (i >= chunk) != refused {
			t.Fatalf("line %d of %d (chunk %d): %s", i, n, chunk, line)
		}
	}

	if err := lw.End(end.UnixNano()); err != nil {
		t.Fatal(err)
	}
	g.s.w.ServeTick(end, nil)
	if err := liveWriter.Flush(); err != nil {
		t.Fatal(err)
	}
	w2 := core.NewWorld(cfg)
	var replayed bytes.Buffer
	replayWriter, err := eventio.NewWriter(&replayed)
	if err != nil {
		t.Fatal(err)
	}
	replayWriter.Attach(w2.Plat.Log())
	applied, err := ReplayIngressLog(w2, &logBuf)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := replayWriter.Flush(); err != nil {
		t.Fatal(err)
	}
	if applied != chunk {
		t.Errorf("replay applied %d envelopes, want %d", applied, chunk)
	}
	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Fatalf("FSEV1 streams diverge: live %d bytes, replay %d bytes", live.Len(), replayed.Len())
	}
}

// TestServeShutdownRacesBatches shuts the real loop down while several
// clients post batches: every handler returns, every envelope is
// either applied or refused as shutting down, and the ingress log
// replays to the live FSEV1 stream. Where the shutdown falls differs
// from run to run; TestServeShutdownSplitsBatch pins the split batch.
func TestServeShutdownRacesBatches(t *testing.T) {
	for round := 0; round < 3; round++ {
		shutdownRound(t, uint64(67+round))
	}
}

// shutdownRound runs one race of Shutdown against posting clients.
func shutdownRound(t *testing.T, seed uint64) {
	t.Helper()
	cfg := tinyConfig(seed)
	logPath := filepath.Join(t.TempDir(), "ingress.fing")
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	w := core.NewWorld(cfg)
	var live bytes.Buffer
	liveWriter, err := eventio.NewWriter(&live)
	if err != nil {
		t.Fatal(err)
	}
	liveWriter.Attach(w.Plat.Log())
	s, err := New(w, Settings{IngressLog: logPath})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	const posters, perBatch = 4, 200
	var allowed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; ; b++ {
				body := strings.Join(registerLines(fmt.Sprintf("sd-%d-%d", p, b), perBatch), "\n")
				resp, err := http.Post(base+"/v1/batch", "application/x-ndjson", strings.NewReader(body))
				if err != nil {
					return // the listener is gone
				}
				var ok, no int64
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
					var out wire.Outcome
					if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
						t.Errorf("outcome %q: %v", sc.Bytes(), err)
					}
					switch {
					case out.Status == wire.StatusAllowed:
						ok++
					case out.Code == wire.CodeShuttingDown:
						no++
					default:
						t.Errorf("outcome %s", sc.Bytes())
					}
				}
				resp.Body.Close()
				allowed.Add(ok)
				if no > 0 || ok < perBatch {
					return
				}
			}
		}()
	}

	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter("server.applied").Value() < 2*perBatch {
		if time.Now().After(deadline) {
			t.Fatal("no batches applied")
		}
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("clients still waiting after Shutdown")
	}
	if err := liveWriter.Flush(); err != nil {
		t.Fatal(err)
	}

	logData, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	w2 := core.NewWorld(cfg)
	var replayed bytes.Buffer
	replayWriter, err := eventio.NewWriter(&replayed)
	if err != nil {
		t.Fatal(err)
	}
	replayWriter.Attach(w2.Plat.Log())
	applied, err := ReplayIngressLog(w2, bytes.NewReader(logData))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := replayWriter.Flush(); err != nil {
		t.Fatal(err)
	}
	if int64(applied) != allowed.Load() {
		t.Errorf("replay applied %d envelopes, clients saw %d allowed", applied, allowed.Load())
	}
	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Fatalf("FSEV1 streams diverge: live %d bytes, replay %d bytes", live.Len(), replayed.Len())
	}
}
