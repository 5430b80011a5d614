package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"footsteps/bench/stat"
	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/server"
	"footsteps/internal/telemetry"
	"footsteps/internal/wire"
)

// serveShape sizes serve-open. Each round starts a fresh `footsteps
// -quick serve` subprocess, logs in a fleet, drives an open loop at the
// nominal rate (latency), then closed-loop bursts (capacity), stops the
// server with SIGTERM and replays its ingress log in-process (recovery).
type serveShape struct {
	fleet        int           // accounts registered and logged in
	nominal      float64       // open-loop envelopes per second, all connections
	nominalFor   time.Duration // open-loop phase length
	warmup       time.Duration // discarded start of the open-loop phase
	bursts       int           // closed-loop bursts per round
	burstBatches int           // batches per connection per burst
	replays      int           // ingress-log replays per round
}

const (
	serveConns = 2  // load connections: at most nproc on the 2-CPU reference host
	serveBatch = 64 // envelopes per NDJSON batch
	// bodiesPerConn is the pre-built body cycle per connection, so the
	// generator is never the bottleneck it measures. 2×512×64 distinct
	// envelopes keep each account far below the hourly rate limit.
	bodiesPerConn = 512
)

var (
	serveFull  = serveShape{fleet: 10_000, nominal: 40_000, nominalFor: 2 * time.Second, warmup: 500 * time.Millisecond, bursts: 5, burstBatches: 300, replays: 2}
	serveSmoke = serveShape{fleet: 2_000, nominal: 10_000, nominalFor: 500 * time.Millisecond, warmup: 100 * time.Millisecond, bursts: 1, burstBatches: 20, replays: 1}
)

func runServeOpen(r *run) error {
	shape := serveFull
	if r.opt.smoke {
		shape = serveSmoke
	}
	if _, err := os.Stat(r.opt.footsteps); err != nil {
		return fmt.Errorf("footsteps binary: %w (build it with go build -o %s footsteps/cmd/footsteps)", err, r.opt.footsteps)
	}
	var rounds []*serveRound
	round := func(i int, traced bool) (int, int, error) {
		rd, err := serveOnce(r, shape, i, traced)
		if err != nil {
			return 0, 0, err
		}
		rounds = append(rounds, rd)
		r.add("setup_s", secs(rd.setup))
		for _, v := range rd.recovery {
			r.add("recovery_s", v)
		}
		r.add("peak_rss_mib", rd.rssMiB)
		for _, b := range rd.bursts {
			r.add("run_s", b)
		}
		for _, l := range rd.lat {
			r.add("latency_ms", l)
		}
		return rd.attempted, rd.failed, nil
	}
	if !r.opt.trace {
		return r.repeatFor(r.window, minReps, func(i int) (int, int, error) { return round(i, false) })
	}
	if err := r.repeatFor(r.window/2, 1, func(i int) (int, int, error) { return round(i, false) }); err != nil {
		return err
	}
	untraced := rounds[len(rounds)-1]
	var baseline []float64
	for _, rd := range rounds {
		baseline = append(baseline, rd.lat...)
	}
	a, f, err := round(len(rounds), true)
	if err != nil {
		return err
	}
	r.attempted += a
	r.failed += f
	traced := rounds[len(rounds)-1]
	r.layers["trace.overhead_pct"] = pct(stat.Median(traced.lat)-stat.Median(baseline), stat.Median(baseline))
	r.setSpanLayers(traced.spans, traced.served, 0)
	traced.setLayers(r, untraced)
	return nil
}

// serveRound is what one server session measured.
type serveRound struct {
	setup         time.Duration
	served        time.Duration // ready → SIGTERM: the base of span shares
	recovery      []float64     // ingress-log replay seconds
	bursts        []float64     // closed-loop burst seconds
	lat           []float64     // open-loop batch latency ms (see openLoop)
	late, batches int           // open-loop batches sent >1 ms after due
	rssMiB        float64
	attempted     int // envelopes sent
	failed        int // envelopes answered with an error, or not at all

	statuses   map[wire.Status]int // open-loop outcomes
	spans      *spanAgg            // traced rounds only
	metricsA   telemetry.Snapshot  // /metricz around the open-loop phase
	metricsB   telemetry.Snapshot
	mem        memStats // server runtime, end of session, after a GC
	events     uint64
	accounts   int
	decodeNsPE float64 // wire.ParseRequest ns per envelope over the bodies
}

func serveOnce(r *run, shape serveShape, i int, traced bool) (*serveRound, error) {
	rd := &serveRound{statuses: make(map[wire.Status]int)}
	dir := filepath.Join(r.dir, fmt.Sprintf("serve-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	srv, err := startServer(r.opt.footsteps, dir, r.opt.seed, traced)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	cl := newClient(srv.addr, srv.debug)
	defer cl.close()
	fl, err := cl.login(shape.fleet)
	if err != nil {
		return nil, err
	}
	rd.setup = time.Since(t0)
	rd.attempted += 3 * shape.fleet
	ready := time.Now()

	gen := newGenerator(r.opt.seed, fl)
	if r.opt.trace {
		rd.decodeNsPE = gen.decodeNs()
	}
	if rd.metricsA, err = cl.metricz(); err != nil {
		return nil, err
	}
	n, err := rd.openLoop(cl, gen, shape)
	if err != nil {
		return nil, err
	}
	if rd.metricsB, err = cl.metricz(); err != nil {
		return nil, err
	}
	for b := 0; b < shape.bursts; b++ {
		if err := rd.closedLoop(cl, gen, n+b*shape.burstBatches, shape.burstBatches); err != nil {
			return nil, err
		}
	}
	if traced {
		if rd.mem, err = cl.memstats(); err != nil {
			return nil, err
		}
	}
	rd.served = time.Since(ready)

	out, rss, err := srv.stop()
	if err != nil {
		return nil, err
	}
	rd.rssMiB = rss
	events, want, ok := parseStream(out)
	if !ok {
		return nil, fmt.Errorf("server printed no stream hash:\n%s", out)
	}
	rd.events = events

	for k := 0; k < shape.replays; k++ {
		t := time.Now()
		got, accounts, err := replayIngress(r.opt.seed, filepath.Join(dir, "ingress.fing"))
		if err != nil {
			return nil, err
		}
		rd.recovery = append(rd.recovery, secs(time.Since(t)))
		rd.accounts = accounts
		r.check(got == want, "ingress replay stream %s differs from served stream %s", got, want)
	}
	actions := 0
	for _, v := range rd.statuses {
		actions += v
	}
	if actions > 0 {
		limited := float64(rd.statuses[wire.StatusRateLimited]) / float64(actions)
		r.check(limited < 0.05, "%.1f%% of open-loop envelopes rate-limited: the fleet no longer absorbs the nominal load", 100*limited)
	}

	if traced {
		rd.spans = &spanAgg{}
		f, err := os.Open(filepath.Join(dir, "trace.ftrc"))
		if err != nil {
			return nil, err
		}
		err = rd.spans.readAll(bufio.NewReaderSize(f, 1<<16))
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return rd, nil
}

// openLoop sends batches on a fixed schedule at the nominal rate. A
// batch still waiting for the previous one on its connection when it
// falls due is timed from its due time, so a stall also delays every
// batch queued behind it. Any other batch is timed from when it was
// sent: the sleep until its due time overshoots by 0.3-0.6 ms on the
// reference host, 40% of the median, and by more when other tenants are
// busy, and that is the generator's lateness, not the server's. How
// late batches go out is reported as serve.late_ratio. It returns how
// many batches each connection sent.
func (rd *serveRound) openLoop(cl *client, gen *generator, shape serveShape) (int, error) {
	interval := time.Duration(float64(serveBatch*serveConns) / shape.nominal * float64(time.Second))
	n := int(shape.nominalFor / interval)
	warm := int(shape.warmup / interval)
	var mu sync.Mutex
	err := parallel(func(c int) error {
		// Connections interleave: connection c is due at (k + c/conns)·interval.
		start := time.Now().Add(time.Duration(c) * interval / serveConns)
		var lat []float64
		late, failed := 0, 0
		st := make(map[wire.Status]int)
		for k := 0; k < n; k++ {
			due := start.Add(time.Duration(k) * interval)
			from := due // the previous batch held this one past its due time
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
				from = time.Now()
			}
			if time.Since(due) > time.Millisecond {
				late++
			}
			bad, err := cl.batch(gen.body(c, k), st)
			if err != nil {
				return err
			}
			failed += bad
			if k >= warm {
				lat = append(lat, millis(time.Since(from)))
			}
		}
		mu.Lock()
		defer mu.Unlock()
		rd.lat = append(rd.lat, lat...)
		rd.late += late
		rd.failed += failed
		rd.batches += n
		for s, v := range st {
			rd.statuses[s] += v
		}
		return nil
	})
	rd.attempted += serveConns * n * serveBatch
	return n, err
}

// closedLoop sends batches back to back on every connection, starting
// at body offset from, and records the burst's wall time.
func (rd *serveRound) closedLoop(cl *client, gen *generator, from, batches int) error {
	t := time.Now()
	var mu sync.Mutex
	err := parallel(func(c int) error {
		st := make(map[wire.Status]int)
		failed := 0
		for k := 0; k < batches; k++ {
			bad, err := cl.batch(gen.body(c, from+k), st)
			if err != nil {
				return err
			}
			failed += bad
		}
		mu.Lock()
		rd.failed += failed
		mu.Unlock()
		return nil
	})
	rd.bursts = append(rd.bursts, secs(time.Since(t)))
	rd.attempted += serveConns * batches * serveBatch
	return err
}

// setLayers fills the serve-path layers: shares of the client-observed
// open-loop batch latency spent waiting in the ingress queue, inside the
// server's batch handler and decoding envelopes; drain amortisation; and
// the server's runtime counters.
func (rd *serveRound) setLayers(r *run, untraced *serveRound) {
	a, b := untraced.metricsA, untraced.metricsB
	client := 1e6 * mean(untraced.lat) // ns
	wait := histDelta(a, b, "server.enqueue.wait")
	handler := histDelta(a, b, "server.latency.batch")
	r.layers["server.enqueue_wait_pct"] = pct(wait, client)
	r.layers["server.handler_pct"] = pct(handler, client)
	r.layers["wire.decode_pct"] = pct(2*serveBatch*untraced.decodeNsPE, client) // parsed at admission and again at apply
	if drains := b.Counters["server.drains"] - a.Counters["server.drains"]; drains > 0 {
		r.layers["server.envelopes_per_drain"] = float64(b.Counters["server.applied"]-a.Counters["server.applied"]) / float64(drains)
	}
	r.layers["server.overloaded"] = float64(b.Counters["server.overloaded"])
	if p50 := stat.Median(untraced.lat); p50 > 0 {
		r.layers["serve.tail_ratio"] = stat.Percentile(untraced.lat, 99) / p50
	}
	actions := 0
	for _, v := range untraced.statuses {
		actions += v
	}
	if actions > 0 {
		r.layers["serve.ratelimited_ratio"] = float64(untraced.statuses[wire.StatusRateLimited]) / float64(actions)
	}
	if untraced.batches > 0 {
		r.layers["serve.late_ratio"] = float64(untraced.late) / float64(untraced.batches)
	}
	r.layers["sim.events"] = float64(rd.events)
	if rd.events > 0 {
		r.layers["runtime.allocs_per_event"] = float64(rd.mem.Mallocs) / float64(rd.events)
	}
	r.layers["runtime.gc_cycles"] = float64(rd.mem.NumGC)
	r.layers["runtime.gc_cpu_pct"] = 100 * rd.mem.GCCPUFraction
	r.layers["runtime.live_heap_mib"] = mib(int64(rd.mem.HeapAlloc))
	if rd.accounts > 0 {
		r.layers["runtime.bytes_per_account"] = float64(rd.mem.HeapAlloc) / float64(rd.accounts)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// histDelta is the mean of the observations a histogram took between
// two snapshots.
func histDelta(a, b telemetry.Snapshot, name string) float64 {
	ha, hb := a.Histograms[name], b.Histograms[name]
	if n := hb.Count - ha.Count; n > 0 {
		return float64(hb.Sum-ha.Sum) / float64(n)
	}
	return 0
}

// parallel runs fn once per load connection and waits for all of them.
func parallel(fn func(conn int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, serveConns)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// replayIngress re-drives a served session from its FING1 ingress log
// in a fresh world, as `footsteps -quick replay -ingress-log` does, and
// returns the replayed stream's sha256 and the world's account count.
func replayIngress(seed uint64, path string) (string, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	cfg := core.TestConfig()
	cfg.Seed = seed
	w := core.NewWorld(cfg)
	h := sha256.New()
	wr, err := eventio.NewWriter(h)
	if err != nil {
		return "", 0, err
	}
	wr.Attach(w.Plat.Log())
	if _, err := server.ReplayIngressLog(w, bufio.NewReaderSize(f, 1<<16)); err != nil {
		return "", 0, err
	}
	if err := wr.Flush(); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), w.Plat.NumAccounts(), nil
}

// parseStream extracts the "Stream: N events, sha256 X" line serve
// prints after its graceful drain.
func parseStream(out string) (uint64, string, bool) {
	for _, line := range strings.Split(out, "\n") {
		var n uint64
		var h string
		if _, err := fmt.Sscanf(line, "Stream: %d events, sha256 %s", &n, &h); err == nil {
			return n, h, true
		}
	}
	return 0, "", false
}

// --- the server subprocess ------------------------------------------------

type serverProc struct {
	cmd        *exec.Cmd
	stdout     string
	addr       string // base URL of the /v1 API
	debug      string // base URL of the debug listener
	exited     chan struct{}
	waitErr    error
	stdoutFile *os.File
}

// startServer runs `footsteps -quick serve` on free loopback ports and
// waits until it reports both listeners.
func startServer(bin, dir string, seed uint64, traced bool) (*serverProc, error) {
	args := []string{"-quick", "-seed", strconv.FormatUint(seed, 10),
		"-serve-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-metrics", filepath.Join(dir, "metrics.jsonl"),
		"-ingress-log", filepath.Join(dir, "ingress.fing")}
	if traced {
		args = append(args, "-trace", filepath.Join(dir, "trace.ftrc"))
	}
	args = append(args, "serve")
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		return nil, err
	}
	s := &serverProc{cmd: exec.Command(bin, args...), stdout: out.Name(), exited: make(chan struct{}), stdoutFile: out}
	s.cmd.Stdout = out
	s.cmd.Stderr = out
	if err := s.cmd.Start(); err != nil {
		out.Close()
		return nil, err
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for s.addr == "" || s.debug == "" {
		select {
		case <-s.exited:
			b, _ := os.ReadFile(s.stdout)
			return nil, fmt.Errorf("footsteps serve exited before listening (%v):\n%s", s.waitErr, b)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("footsteps serve did not start listening within 60s")
		}
		b, _ := os.ReadFile(s.stdout)
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "Serving on "); ok {
				s.addr, _, _ = strings.Cut(rest, " ")
			}
			if rest, ok := strings.CutPrefix(line, "Debug server on "); ok {
				s.debug, _, _ = strings.Cut(rest, " ")
			}
		}
	}
	return s, nil
}

// stop sends SIGTERM, waits for the graceful drain and returns the
// server's output and peak RSS in MiB.
func (s *serverProc) stop() (string, float64, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return "", 0, err
	}
	select {
	case <-s.exited:
	case <-time.After(60 * time.Second):
		s.kill()
		return "", 0, errors.New("footsteps serve did not drain within 60s of SIGTERM")
	}
	s.stdoutFile.Close()
	b, err := os.ReadFile(s.stdout)
	if err != nil {
		return "", 0, err
	}
	if s.waitErr != nil {
		return "", 0, fmt.Errorf("footsteps serve: %v:\n%s", s.waitErr, b)
	}
	rss := 0.0
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	return string(b), rss, nil
}

// kill ends the server if it is still running and waits for it.
func (s *serverProc) kill() {
	select {
	case <-s.exited:
	default:
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.stdoutFile.Close()
}

// --- the HTTP client --------------------------------------------------------

type client struct {
	http      *http.Client
	base      string // the /v1 API
	debug     string // the debug listener
	transport *http.Transport
}

func newClient(base, debug string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, debug: debug, transport: tr}
}

func (c *client) close() { c.transport.CloseIdleConnections() }

func (c *client) post(body []byte) ([]byte, error) {
	resp, err := c.http.Post(c.base+"/v1/batch", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/batch: %s", resp.Status)
	}
	return out, nil
}

// batch posts one generated batch and checks that exactly one v1
// outcome came back per envelope, in order. It returns how many
// envelopes failed: answered with status "error", or not at all.
func (c *client) batch(body []byte, st map[wire.Status]int) (int, error) {
	out, err := c.post(body)
	if err != nil {
		return 0, err
	}
	failed := serveBatch
	k := 0
	for len(out) > 0 && k < serveBatch {
		line := out
		if i := bytes.IndexByte(out, '\n'); i >= 0 {
			line, out = out[:i], out[i+1:]
		} else {
			out = nil
		}
		id, status := outcomeFields(line)
		if id != uint64(k+1) {
			break
		}
		k++
		st[status]++
		if status != wire.StatusError {
			failed--
		}
	}
	return failed, nil
}

// outcomeFields pulls "id" and "status" out of one outcome line without
// a full JSON decode: the generator must stay cheap next to the server.
func outcomeFields(line []byte) (uint64, wire.Status) {
	var id uint64
	if i := bytes.Index(line, []byte(`"id":`)); i >= 0 {
		for _, ch := range line[i+5:] {
			if ch < '0' || ch > '9' {
				break
			}
			id = id*10 + uint64(ch-'0')
		}
	}
	var status wire.Status
	if i := bytes.Index(line, []byte(`"status":"`)); i >= 0 {
		rest := line[i+10:]
		if j := bytes.IndexByte(rest, '"'); j >= 0 {
			status = wire.Status(rest[:j])
		}
	}
	return id, status
}

// fleet is the logged-in account population the generator drives.
type fleet struct {
	tokens []string
	ids    []uint64
	posts  []uint64
}

// login registers n accounts, logs each in and seeds one post apiece.
func (c *client) login(n int) (*fleet, error) {
	call := func(line func(i int) string) ([]wire.Outcome, error) {
		var buf bytes.Buffer
		for i := 0; i < n; i++ {
			buf.WriteString(line(i))
			buf.WriteByte('\n')
		}
		out, err := c.post(buf.Bytes())
		if err != nil {
			return nil, err
		}
		outs := make([]wire.Outcome, 0, n)
		dec := json.NewDecoder(bytes.NewReader(out))
		for dec.More() {
			var o wire.Outcome
			if err := dec.Decode(&o); err != nil {
				return nil, err
			}
			if o.Status != wire.StatusAllowed {
				return nil, fmt.Errorf("fleet set-up: %s %s: %s", o.Status, o.Code, o.Detail)
			}
			outs = append(outs, o)
		}
		if len(outs) != n {
			return nil, fmt.Errorf("fleet set-up: %d outcomes for %d envelopes", len(outs), n)
		}
		return outs, nil
	}
	f := &fleet{}
	outs, err := call(func(i int) string {
		return fmt.Sprintf(`{"v":1,"op":"register","username":"bench-%d","password":"pw"}`, i)
	})
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		f.ids = append(f.ids, o.Account)
	}
	if outs, err = call(func(i int) string {
		return fmt.Sprintf(`{"v":1,"op":"login","username":"bench-%d","password":"pw"}`, i)
	}); err != nil {
		return nil, err
	}
	for _, o := range outs {
		f.tokens = append(f.tokens, o.Token)
	}
	if outs, err = call(func(i int) string {
		return fmt.Sprintf(`{"v":1,"op":"post","token":%q,"tags":["bench"]}`, f.tokens[i])
	}); err != nil {
		return nil, err
	}
	for _, o := range outs {
		f.posts = append(f.posts, o.Post)
	}
	return f, nil
}

func (c *client) getJSON(url string, v any) error {
	resp, err := c.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *client) metricz() (telemetry.Snapshot, error) {
	var s telemetry.Snapshot
	err := c.getJSON(c.base+"/metricz", &s)
	return s, err
}

// memStats is the part of the expvar memstats the benchmark reads.
type memStats struct {
	Mallocs       uint64
	NumGC         uint32
	GCCPUFraction float64
	HeapAlloc     uint64
}

// memstats collects the server's garbage (the heap profile endpoint runs
// a GC when asked) and then reads its runtime counters.
func (c *client) memstats() (memStats, error) {
	resp, err := c.http.Get(c.debug + "/debug/pprof/heap?gc=1")
	if err != nil {
		return memStats{}, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var vars struct{ Memstats memStats }
	err = c.getJSON(c.debug+"/debug/vars", &vars)
	return vars.Memstats, err
}

// --- the generator ----------------------------------------------------------

// generator holds the pre-built NDJSON batch bodies, drawn from the
// workload seed: 40% follow, 30% like, 20% comment, 10% unfollow, each
// from a random fleet account at a random account or post. Every round
// of a run sends the same bodies to an identical fresh server, so rounds
// differ only by the host.
type generator struct {
	bodies [serveConns][][]byte
}

func newGenerator(seed uint64, f *fleet) *generator {
	rng := rand.New(rand.NewPCG(seed, 0))
	g := &generator{}
	var buf bytes.Buffer
	for c := range g.bodies {
		for b := 0; b < bodiesPerConn; b++ {
			buf.Reset()
			for k := 1; k <= serveBatch; k++ {
				tok := f.tokens[rng.IntN(len(f.tokens))]
				switch x := rng.IntN(10); {
				case x < 4:
					fmt.Fprintf(&buf, `{"v":1,"id":%d,"op":"follow","token":%q,"target":%d}`, k, tok, f.ids[rng.IntN(len(f.ids))])
				case x < 7:
					fmt.Fprintf(&buf, `{"v":1,"id":%d,"op":"like","token":%q,"post":%d}`, k, tok, f.posts[rng.IntN(len(f.posts))])
				case x < 9:
					fmt.Fprintf(&buf, `{"v":1,"id":%d,"op":"comment","token":%q,"post":%d,"text":"nice %d"}`, k, tok, f.posts[rng.IntN(len(f.posts))], rng.IntN(1000))
				default:
					fmt.Fprintf(&buf, `{"v":1,"id":%d,"op":"unfollow","token":%q,"target":%d}`, k, tok, f.ids[rng.IntN(len(f.ids))])
				}
				buf.WriteByte('\n')
			}
			g.bodies[c] = append(g.bodies[c], append([]byte(nil), buf.Bytes()...))
		}
	}
	return g
}

func (g *generator) body(conn, k int) []byte { return g.bodies[conn][k%bodiesPerConn] }

// decodeNs times wire.ParseRequest over every generated envelope: the
// wire layer's cost per envelope, measured from outside the server.
func (g *generator) decodeNs() float64 {
	n := 0
	t := time.Now()
	for _, bodies := range g.bodies {
		for _, body := range bodies {
			for len(body) > 0 {
				line := body
				if i := bytes.IndexByte(body, '\n'); i >= 0 {
					line, body = body[:i], body[i+1:]
				} else {
					body = nil
				}
				if _, werr := wire.ParseRequest(line); werr != nil {
					panic(werr) // the generator writes only valid envelopes
				}
				n++
			}
		}
	}
	return float64(time.Since(t)) / float64(n)
}
