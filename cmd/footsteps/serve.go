package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"footsteps"
	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/server"
	"footsteps/internal/telemetry"
	"footsteps/internal/wire"
)

// runServe hosts the world behind the HTTP/WS front end until SIGINT or
// SIGTERM, then shuts down gracefully: admission closes, the world loop
// drains and seals the FING1 ingress log, the FSEV1 capture flushes,
// and the stream hash prints — the artifact `footsteps replay
// -ingress-log` verifies against.
func runServe(cfg footsteps.Config, record string) error {
	w := core.NewWorld(cfg)
	telemetryAttach(w)

	h := sha256.New()
	var out io.Writer = h
	var recordFile *os.File
	if record != "" {
		f, err := os.Create(record)
		if err != nil {
			return err
		}
		defer f.Close()
		recordFile = f
		out = io.MultiWriter(f, h)
	}
	wr, err := eventio.NewWriter(out)
	if err != nil {
		return err
	}
	wr.Attach(w.Plat.Log())

	s, err := server.New(w)
	if err != nil {
		return err
	}
	if err := s.Start(); err != nil {
		return err
	}
	fmt.Printf("Serving on http://%s (pace %gx, queue %d)\n", s.Addr(),
		orDefault(cfg.ServePace, server.DefaultPace), orDefaultInt(cfg.ServeQueueDepth, server.DefaultQueueDepth))
	if cfg.ServeIngressLog != "" {
		fmt.Printf("Ingress log: %s\n", cfg.ServeIngressLog)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	fmt.Fprintf(os.Stderr, "footsteps: %v: draining and sealing logs\n", sig)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := wr.Flush(); err != nil {
		return err
	}
	fmt.Printf("Stream: %d events, sha256 %x\n", wr.Count(), h.Sum(nil))
	if recordFile != nil {
		fmt.Printf("FSEV1 capture written to %s\n", record)
	}
	telemetryReport(w)
	return nil
}

func orDefault(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}

func orDefaultInt(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// runReplayIngress rebuilds the world and re-drives a recorded serve
// session from its FING1 ingress log, then (with -against) verifies the
// reproduced FSEV1 stream byte-for-byte against the live capture.
func runReplayIngress(cfg footsteps.Config, ingressLog, against, record string) error {
	f, err := os.Open(ingressLog)
	if err != nil {
		return err
	}
	defer f.Close()

	w := core.NewWorld(cfg)
	var buf bytes.Buffer
	wr, err := eventio.NewWriter(&buf)
	if err != nil {
		return err
	}
	wr.Attach(w.Plat.Log())

	applied, err := server.ReplayIngressLog(w, bufio.NewReader(f))
	if err != nil {
		return err
	}
	if err := wr.Flush(); err != nil {
		return err
	}
	fmt.Printf("Ingress replay: %d envelopes applied, %d events, stream sha256 %x\n",
		applied, wr.Count(), sha256.Sum256(buf.Bytes()))

	if record != "" {
		if err := os.WriteFile(record, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("Replayed FSEV1 capture written to %s\n", record)
	}
	if against == "" {
		return nil
	}
	want, err := os.ReadFile(against)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, buf.Bytes()) {
		off, idx := firstDivergence(want, buf.Bytes())
		return fmt.Errorf("ingress replay DIVERGED from %s: first difference at byte offset %d, after %d intact events; sha256 %x vs %x (%d vs %d bytes)",
			against, off, idx, sha256.Sum256(buf.Bytes()), sha256.Sum256(want), buf.Len(), len(want))
	}
	fmt.Printf("Ingress replay matches %s byte-for-byte.\n", against)
	return nil
}

// runLoadgen drives mixed register/follow/like/comment/post traffic at
// a serve instance over /v1/batch and reports sustained throughput plus
// latency quantiles from a client-side telemetry registry — and the
// server's own enqueue-wait quantiles scraped from /metricz when
// telemetry is live over there.
func runLoadgen(target string, rps float64, duration time.Duration, conns, batchSize, accounts int) error {
	if conns < 1 {
		conns = 1
	}
	if batchSize < 1 {
		batchSize = 1
	}
	if accounts < 2 {
		accounts = 2
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns * 2,
		MaxIdleConnsPerHost: conns * 2,
	}}

	if resp, err := client.Get(target + "/healthz"); err != nil {
		return fmt.Errorf("loadgen: server unreachable at %s: %w", target, err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("loadgen: %s/healthz: %s", target, resp.Status)
		}
	}

	// Setup: register + login a fleet over /v1/batch, then seed one
	// post per account so likes and comments have targets.
	tokens, accountIDs, postIDs, err := loadgenSetup(client, target, accounts)
	if err != nil {
		return err
	}
	fmt.Printf("Loadgen: %d accounts ready; driving %d conns × batches of %d for %v...\n",
		len(tokens), conns, batchSize, duration)

	// Fine sub-millisecond buckets: against a loopback server most
	// requests land under 100µs, where the default decade-spaced bounds
	// reported p50 = p95 = 100µs.
	reg := telemetry.NewRegistry()
	latBatch := reg.Histogram("loadgen.latency.batch", telemetry.FineDurationBuckets)
	latReq := reg.Histogram("loadgen.latency.request", telemetry.FineDurationBuckets)

	var sent, allowed, rateLimited, blocked, failed, errored atomic.Int64
	deadline := time.Now().Add(duration)
	// Per-connection pacing: each conn owes rps/conns requests per
	// second, i.e. one batch every batchSize·conns/rps seconds.
	var interval time.Duration
	if rps > 0 {
		interval = time.Duration(float64(batchSize*conns) / rps * float64(time.Second))
	}

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Pre-built NDJSON bodies, cycled: the client must not be
			// the bottleneck it is measuring.
			bodies := loadgenBodies(c, batchSize, tokens, accountIDs, postIDs)
			next := time.Now()
			for i := 0; time.Now().Before(deadline); i++ {
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				body := bodies[i%len(bodies)]
				t0 := time.Now()
				resp, err := client.Post(target+"/v1/batch", "application/x-ndjson", bytes.NewReader(body))
				if err != nil {
					errored.Add(int64(batchSize))
					continue
				}
				out, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				lat := time.Since(t0)
				latBatch.Observe(lat.Nanoseconds())
				latReq.Observe(lat.Nanoseconds() / int64(batchSize))
				sent.Add(int64(batchSize))
				allowed.Add(int64(bytes.Count(out, []byte(`"status":"allowed"`))))
				rateLimited.Add(int64(bytes.Count(out, []byte(`"status":"rate-limited"`))))
				blocked.Add(int64(bytes.Count(out, []byte(`"status":"blocked"`))))
				failed.Add(int64(bytes.Count(out, []byte(`"status":"failed"`))))
				errored.Add(int64(bytes.Count(out, []byte(`"status":"error"`))))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := sent.Load()
	throughput := float64(total) / elapsed.Seconds()
	snap := reg.Snapshot()
	hb := snap.Histograms["loadgen.latency.batch"]
	hr := snap.Histograms["loadgen.latency.request"]
	fmt.Printf("\nLoadgen: %d envelopes in %.2fs = %.0f req/s\n", total, elapsed.Seconds(), throughput)
	fmt.Printf("Outcomes: allowed %d, rate-limited %d, blocked %d, failed %d, error %d\n",
		allowed.Load(), rateLimited.Load(), blocked.Load(), failed.Load(), errored.Load())
	fmt.Printf("Batch latency (client):   p50 %s  p95 %s  p99 %s\n",
		time.Duration(hb.Quantile(0.50)), time.Duration(hb.Quantile(0.95)), time.Duration(hb.Quantile(0.99)))
	fmt.Printf("Request latency (client): p50 %s  p95 %s  p99 %s\n",
		time.Duration(hr.Quantile(0.50)), time.Duration(hr.Quantile(0.95)), time.Duration(hr.Quantile(0.99)))

	// Server-side view, if its telemetry is on.
	if enq, ok := scrapeHistogram(client, target, "server.enqueue.wait"); ok {
		fmt.Printf("Enqueue wait (server):    p50 %s  p95 %s  p99 %s  (n=%d)\n",
			time.Duration(enq.Quantile(0.50)), time.Duration(enq.Quantile(0.95)), time.Duration(enq.Quantile(0.99)), enq.Count)
	}

	// One machine-readable line for scripts that parse the run.
	jsonLine, _ := json.Marshal(map[string]any{
		"envelopes":      total,
		"seconds":        elapsed.Seconds(),
		"throughput_rps": throughput,
		"p50_ns":         hr.Quantile(0.50),
		"p95_ns":         hr.Quantile(0.95),
		"p99_ns":         hr.Quantile(0.99),
	})
	fmt.Printf("loadgen-json: %s\n", jsonLine)

	if total == 0 || errored.Load() == total {
		return fmt.Errorf("loadgen: no traffic served (sent %d, errored %d)", total, errored.Load())
	}
	return nil
}

// loadgenSetup registers and logs in the account fleet and seeds one
// post each, returning tokens, account ids, and post ids.
func loadgenSetup(client *http.Client, target string, accounts int) (tokens []string, ids, posts []uint64, err error) {
	post := func(build func(buf *bytes.Buffer)) ([]wire.Outcome, error) {
		var buf bytes.Buffer
		build(&buf)
		resp, err := client.Post(target+"/v1/batch", "application/x-ndjson", &buf)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var outs []wire.Outcome
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var out wire.Outcome
			if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
				return nil, err
			}
			outs = append(outs, out)
		}
		return outs, sc.Err()
	}

	regOuts, err := post(func(buf *bytes.Buffer) {
		for i := 0; i < accounts; i++ {
			fmt.Fprintf(buf, `{"v":1,"op":"register","username":"loadgen-%d","password":"pw"}`+"\n", i)
		}
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("loadgen: register: %w", err)
	}
	for _, out := range regOuts {
		if out.Status == wire.StatusAllowed {
			ids = append(ids, out.Account)
		}
	}
	loginOuts, err := post(func(buf *bytes.Buffer) {
		for i := 0; i < accounts; i++ {
			fmt.Fprintf(buf, `{"v":1,"op":"login","username":"loadgen-%d","password":"pw"}`+"\n", i)
		}
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("loadgen: login: %w", err)
	}
	for _, out := range loginOuts {
		if out.Status == wire.StatusAllowed && out.Token != "" {
			tokens = append(tokens, out.Token)
		}
	}
	if len(tokens) == 0 {
		return nil, nil, nil, fmt.Errorf("loadgen: no sessions established (register errors: %+v)", firstError(regOuts))
	}
	postOuts, err := post(func(buf *bytes.Buffer) {
		for _, tok := range tokens {
			fmt.Fprintf(buf, `{"v":1,"op":"post","token":"%s","tags":["loadgen"]}`+"\n", tok)
		}
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("loadgen: seed posts: %w", err)
	}
	for _, out := range postOuts {
		if out.Status == wire.StatusAllowed && out.Post != 0 {
			posts = append(posts, out.Post)
		}
	}
	if len(posts) == 0 {
		return nil, nil, nil, fmt.Errorf("loadgen: no seed posts created")
	}
	return tokens, ids, posts, nil
}

func firstError(outs []wire.Outcome) wire.Outcome {
	for _, out := range outs {
		if out.Status != wire.StatusAllowed {
			return out
		}
	}
	return wire.Outcome{}
}

// loadgenBodies pre-builds a cycle of NDJSON batch bodies mixing the
// paper's action families: mostly follows and likes, some comments,
// an occasional post.
func loadgenBodies(conn, batchSize int, tokens []string, ids, posts []uint64) [][]byte {
	// Cheap deterministic-ish stream; client traffic need not be
	// reproducible, only varied.
	state := uint64(conn)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	bodies := make([][]byte, 16)
	for b := range bodies {
		var buf bytes.Buffer
		for i := 0; i < batchSize; i++ {
			tok := tokens[next(len(tokens))]
			switch next(10) {
			case 0, 1, 2, 3:
				fmt.Fprintf(&buf, `{"v":1,"op":"follow","token":"%s","target":%d}`+"\n", tok, ids[next(len(ids))])
			case 4, 5, 6:
				fmt.Fprintf(&buf, `{"v":1,"op":"like","token":"%s","post":%d}`+"\n", tok, posts[next(len(posts))])
			case 7, 8:
				fmt.Fprintf(&buf, `{"v":1,"op":"comment","token":"%s","post":%d,"text":"nice one %d"}`+"\n", tok, posts[next(len(posts))], i)
			default:
				fmt.Fprintf(&buf, `{"v":1,"op":"unfollow","token":"%s","target":%d}`+"\n", tok, ids[next(len(ids))])
			}
		}
		bodies[b] = append([]byte(nil), buf.Bytes()...)
	}
	return bodies
}

// scrapeHistogram fetches /metricz and extracts one histogram snapshot.
func scrapeHistogram(client *http.Client, target, name string) (telemetry.HistogramSnapshot, bool) {
	resp, err := client.Get(target + "/metricz")
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return telemetry.HistogramSnapshot{}, false
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return telemetry.HistogramSnapshot{}, false
	}
	h, ok := snap.Histograms[name]
	return h, ok && h.Count > 0
}
