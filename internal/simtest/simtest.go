// Package simtest is the simulator's determinism harness: it runs whole
// worlds to completion, captures their full event streams in the FSEV1
// binary encoding, and lets tests assert the core determinism contract —
// that the event stream is a pure function of the config and seed, and
// that observers, scratch reuse and checkpoints never move it.
//
// The comparison is deliberately over encoded bytes, not summary
// statistics: two streams that differ anywhere (an extra event, a
// reordered pair, a different timestamp or source IP) cannot hash equal,
// so any nondeterminism introduced into the plan/apply pipeline fails
// loudly here. Run under -race, these tests also arm the single-writer
// phase guard (step.Phase) on every world they build.
package simtest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/core"
	"footsteps/internal/eventio"
)

// Capture builds a world from cfg, runs the full lifecycle for the
// configured window, and returns the complete event stream encoded as
// FSEV1 bytes.
func Capture(cfg core.Config) []byte {
	return CaptureWorld(cfg, nil)
}

// CaptureWorld is Capture with a hook: prep (when non-nil) runs on the
// freshly built world before the lifecycle starts. The telemetry tests
// use it to attach metric sinks (StreamTelemetryDaily) that the pure-
// observer contract says must not change the bytes.
func CaptureWorld(cfg core.Config, prep func(*core.World)) []byte {
	var buf bytes.Buffer
	wr, err := eventio.NewWriter(&buf)
	if err != nil {
		panic(fmt.Sprintf("simtest: new writer: %v", err))
	}
	w := core.NewWorld(cfg)
	wr.Attach(w.Plat.Log())
	if prep != nil {
		prep(w)
	}
	w.RunAll()
	w.Sched.RunFor(clock.Day * time.Duration(cfg.Days))
	if err := wr.Flush(); err != nil {
		panic(fmt.Sprintf("simtest: flush: %v", err))
	}
	return buf.Bytes()
}

// Hash returns a short hex digest of an event stream, for readable
// failure messages.
func Hash(stream []byte) string {
	sum := sha256.Sum256(stream)
	return hex.EncodeToString(sum[:8])
}
