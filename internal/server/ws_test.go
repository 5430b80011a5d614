package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"footsteps/internal/core"
	"footsteps/internal/platform"
	"footsteps/internal/telemetry"
	"footsteps/internal/wire"
)

// TestServeWSStalledSubscriber opens an event stream and reads nothing
// while batches fill the socket and the subscriber's wsSendBuf. The
// world loop must not block on it, and once the client drains, the
// frames it got plus server.ws.dropped must account for every event
// emitted while it was subscribed.
func TestServeWSStalledSubscriber(t *testing.T) {
	cfg := tinyConfig(53)
	cfg.Telemetry = telemetry.NewRegistry()
	w := core.NewWorld(cfg)
	var lastSeq atomic.Uint64
	w.Plat.Log().Subscribe(func(ev platform.Event) { lastSeq.Store(ev.Seq) })
	// Simulated time all but stands still, so every event after set-up
	// comes from the batches below.
	s, err := New(w, Settings{Pace: 1e-9})
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
	base := "http://" + s.Addr()
	dropped := cfg.Telemetry.Counter("server.ws.dropped")
	client := &http.Client{Timeout: 30 * time.Second}

	post := func(body []byte) {
		t.Helper()
		resp, err := client.Post(base+"/v1/batch", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("batch did not complete: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: %s", resp.Status)
		}
	}
	postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpRegister, Username: "slow-a", Password: "pw"}))
	_, target := postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpRegister, Username: "slow-b", Password: "pw"}))
	_, login := postJSON(t, base+"/v1/request", mustJSON(t, wire.Request{V: 1, Op: wire.OpLogin, Username: "slow-a", Password: "pw"}))
	if login.Token == "" || target.Account == 0 {
		t.Fatalf("set-up: login %+v, target %+v", login, target)
	}
	var batch bytes.Buffer
	for i := 0; i < DefaultMaxBatch; i++ {
		op := "follow"
		if i%2 == 1 {
			op = "unfollow"
		}
		fmt.Fprintf(&batch, `{"v":1,"op":%q,"token":%q,"target":%d}`+"\n", op, login.Token, target.Account)
	}

	conn := wsDial(t, s.Addr())
	defer conn.Close()
	// Loopback socket buffers hold a few MiB, tens of thousands of
	// frames; 100 batches are several times that.
	for i := 0; i < 100 && dropped.Value() == 0; i++ {
		post(batch.Bytes())
	}
	if dropped.Value() == 0 {
		t.Fatal("100 batches never filled the stalled subscriber's buffers")
	}
	// The loop still applies ingress with the subscriber stalled.
	post(batch.Bytes())
	last, lost := lastSeq.Load(), dropped.Value()

	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	var first, prev, got uint64
	for first == 0 || got+uint64(lost) < last-first+1 {
		var ev wire.Event
		frame := readTextFrame(t, conn)
		if err := json.Unmarshal(frame, &ev); err != nil {
			t.Fatalf("frame %q: %v", frame, err)
		}
		if ev.Seq <= prev {
			t.Fatalf("frame seq %d after %d", ev.Seq, prev)
		}
		if first == 0 {
			first = ev.Seq
		}
		prev = ev.Seq
		got++
	}
	if lastSeq.Load() != last || dropped.Value() != lost {
		t.Fatalf("events kept coming after the last batch: seq %d → %d, dropped %d → %d",
			last, lastSeq.Load(), lost, dropped.Value())
	}
	if emitted := last - first + 1; got+uint64(lost) != emitted {
		t.Fatalf("received %d + dropped %d frames, but %d events were emitted", got, lost, emitted)
	}
	t.Logf("%d events while subscribed: %d frames received, %d dropped", last-first+1, got, lost)
}
