package server

import (
	"testing"

	"footsteps/internal/clock"
	"footsteps/internal/platform"
	"footsteps/internal/telemetry"
)

// TestAllocBudgetBroadcastFullSubscriber pins the world goroutine's cost
// of a subscriber whose send buffer is full: the frame is counted as
// dropped without being copied, so the emit allocates nothing.
func TestAllocBudgetBroadcastFullSubscriber(t *testing.T) {
	b := newBroadcaster()
	b.dropped = telemetry.NewRegistry().Counter("server.ws.dropped")
	c := &wsConn{ch: make(chan []byte, 1), dead: make(chan struct{})}
	b.subs[c] = struct{}{}
	ev := platform.Event{Seq: 1, Time: clock.Epoch, Type: platform.ActionLike, Actor: 2, Target: 3, Post: 4, Client: "spoof"}
	b.emit(ev) // fills the one-frame buffer and sizes the scratch
	const runs = 100
	got := testing.AllocsPerRun(runs, func() { b.emit(ev) })
	if got != 0 {
		t.Errorf("broadcaster.emit to a full subscriber allocates %.1f/op, want 0", got)
	}
	if len(c.ch) != 1 || b.dropped.Value() != runs+1 {
		t.Errorf("buffer holds %d frames and %d were dropped, want 1 and %d", len(c.ch), b.dropped.Value(), runs+1)
	}
}
