package simtest

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/server"
	"footsteps/internal/wire"
)

// These tests extend the determinism harness to the network front end
// (internal/server): a world driven through the library path — ServeTick
// plus Executor.Apply at scripted sim instants — must produce the exact
// FSEV1 bytes that re-driving its FING1 ingress log into a fresh world
// produces. This is the contract that makes a serve session auditable: record the ingress, replay it,
// and the whole event stream (organic traffic interleaved with wire
// traffic) reproduces bit for bit.

// ingressRun is one library-driven serve session: the event stream it
// emitted and the ingress log it recorded.
type ingressRun struct {
	stream []byte // FSEV1 bytes
	log    []byte // FING1 bytes
}

// ingressScript drives a deterministic mixed-traffic session against w:
// registrations, logins, seed posts, then batches of follow/like/comment
// traffic at hourly ServeTicks, with organic automation running
// underneath the whole time. Envelopes are recorded to a FING1 log
// exactly as the server's world loop records them: inside the drain,
// before they apply.
func captureIngressRun(t *testing.T, cfg core.Config) ingressRun {
	t.Helper()
	w := core.NewWorld(cfg)
	var stream bytes.Buffer
	wr, err := eventio.NewWriter(&stream)
	if err != nil {
		t.Fatalf("new writer: %v", err)
	}
	wr.Attach(w.Plat.Log())

	var logBuf bytes.Buffer
	lw, err := wire.NewLogWriter(&logBuf)
	if err != nil {
		t.Fatalf("new log writer: %v", err)
	}
	exec := server.NewExecutor(w)
	start := w.Sched.Clock().Now()

	step := func(off time.Duration, envs [][]byte) []wire.Outcome {
		t.Helper()
		at := start.Add(off)
		if len(envs) == 0 {
			w.ServeTick(at, nil)
			return nil
		}
		outs := make([]wire.Outcome, 0, len(envs))
		w.ServeTick(at, func() {
			if err := lw.Batch(at.UnixNano(), envs); err != nil {
				t.Fatalf("log batch: %v", err)
			}
			for _, env := range envs {
				outs = append(outs, exec.Apply(env))
			}
		})
		return outs
	}

	const fleet = 8
	regs := make([][]byte, fleet)
	for i := range regs {
		regs[i] = []byte(fmt.Sprintf(`{"v":1,"op":"register","username":"ingress-%d","password":"pw"}`, i))
	}
	var accounts []uint64
	for _, out := range step(1*time.Hour, regs) {
		if out.Status != wire.StatusAllowed {
			t.Fatalf("register rejected: %+v", out)
		}
		accounts = append(accounts, out.Account)
	}

	logins := make([][]byte, fleet)
	for i := range logins {
		logins[i] = []byte(fmt.Sprintf(`{"v":1,"op":"login","username":"ingress-%d","password":"pw"}`, i))
	}
	var tokens []string
	for _, out := range step(2*time.Hour, logins) {
		if out.Token == "" {
			t.Fatalf("login rejected: %+v", out)
		}
		tokens = append(tokens, out.Token)
	}

	seeds := make([][]byte, fleet)
	for i, tok := range tokens {
		seeds[i] = []byte(fmt.Sprintf(`{"v":1,"op":"post","token":"%s","tags":["ingress"]}`, tok))
	}
	var posts []uint64
	for _, out := range step(3*time.Hour, seeds) {
		if out.Post == 0 {
			t.Fatalf("seed post rejected: %+v", out)
		}
		posts = append(posts, out.Post)
	}

	// Twelve hourly batches of mixed action traffic from a fixed PRNG.
	// Rejections (rate limits and the like) are fine — they are events
	// too, and must reproduce.
	state := uint64(0x1276d5a1e55) // fixed, arbitrary
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	for batch := 0; batch < 12; batch++ {
		envs := make([][]byte, 0, 16)
		for i := 0; i < 16; i++ {
			tok := tokens[next(len(tokens))]
			switch next(4) {
			case 0:
				envs = append(envs, []byte(fmt.Sprintf(`{"v":1,"op":"follow","token":"%s","target":%d}`, tok, accounts[next(len(accounts))])))
			case 1:
				envs = append(envs, []byte(fmt.Sprintf(`{"v":1,"op":"like","token":"%s","post":%d}`, tok, posts[next(len(posts))])))
			case 2:
				envs = append(envs, []byte(fmt.Sprintf(`{"v":1,"op":"comment","token":"%s","post":%d,"text":"b%d"}`, tok, posts[next(len(posts))], batch)))
			default:
				envs = append(envs, []byte(fmt.Sprintf(`{"v":1,"op":"unfollow","token":"%s","target":%d}`, tok, accounts[next(len(accounts))])))
			}
		}
		step(time.Duration(4+batch)*time.Hour, envs)
	}

	// Quiet tail, then the end record — the shape a graceful serve
	// shutdown leaves behind.
	end := start.Add(17 * time.Hour)
	w.ServeTick(end, nil)
	if err := lw.End(end.UnixNano()); err != nil {
		t.Fatalf("log end: %v", err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return ingressRun{stream: stream.Bytes(), log: logBuf.Bytes()}
}

// replayIngressRun rebuilds a world from the same config and re-drives
// the recorded ingress log, returning the reproduced FSEV1 bytes.
func replayIngressRun(t *testing.T, cfg core.Config, log []byte) []byte {
	t.Helper()
	w := core.NewWorld(cfg)
	var stream bytes.Buffer
	wr, err := eventio.NewWriter(&stream)
	if err != nil {
		t.Fatalf("new writer: %v", err)
	}
	wr.Attach(w.Plat.Log())
	if _, err := server.ReplayIngressLog(w, bytes.NewReader(log)); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return stream.Bytes()
}

// TestIngressReplayMatchesLive pins the serve determinism contract: the
// ingress-log replay reproduces the live stream byte for byte.
func TestIngressReplayMatchesLive(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(5)
	live := captureIngressRun(t, cfg)
	if len(live.stream) == 0 || len(live.log) == 0 {
		t.Fatalf("empty capture (stream %d bytes, log %d bytes)", len(live.stream), len(live.log))
	}
	replayed := replayIngressRun(t, cfg, live.log)
	if !bytes.Equal(live.stream, replayed) {
		t.Errorf("ingress replay diverged: live %s (%d bytes) vs replay %s (%d bytes)",
			Hash(live.stream), len(live.stream), Hash(replayed), len(replayed))
	}
}
