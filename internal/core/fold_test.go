package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"footsteps/internal/platform"
	"footsteps/internal/telemetry"
)

// TestDailyTelemetryCountsFoldedEvents runs a business study with the
// daily JSONL flush and holds each day's detection.events.observed to a
// synchronous subscriber's count of the events the tracker keeps,
// sampled just before the same flush. The tracker folds on the event
// log's own goroutine, so the two agree only if the flush syncs the log.
func TestDailyTelemetryCountsFoldedEvents(t *testing.T) {
	cfg := TestConfig()
	cfg.Days = 8
	cfg.Telemetry = telemetry.NewRegistry()
	w := NewWorld(cfg)

	var kept int64
	w.Plat.Log().Subscribe(func(ev platform.Event) {
		if ev.Outcome == platform.OutcomeAllowed && !ev.Enforcement && !ev.Duplicate {
			kept++
		}
	})
	// Scheduled before the flush at the same instant, so it runs first.
	var samples []int64
	w.Sched.EveryDay(23*time.Hour+59*time.Minute, cfg.Days+5, func(int) { samples = append(samples, kept) })
	var jsonl bytes.Buffer
	w.StreamTelemetryDaily(&jsonl)
	if _, err := w.BusinessStudy(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&jsonl)
	sc.Buffer(nil, 1<<20)
	var observed []int64
	for sc.Scan() {
		var rec telemetry.DayRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		observed = append(observed, rec.Counters["detection.events.observed"])
	}
	if len(observed) != len(samples) {
		t.Fatalf("%d JSONL lines, %d samples", len(observed), len(samples))
	}
	checked := 0
	for d := 1; d < len(observed); d++ {
		if observed[d-1] == 0 {
			continue // the tracker was not yet registered at day d-1's flush
		}
		got, want := observed[d]-observed[d-1], samples[d]-samples[d-1]
		if got != want {
			t.Errorf("day %d: detection.events.observed grew by %d, the events kept by %d", d, got, want)
		}
		checked++
	}
	if checked < cfg.Days-2 {
		t.Fatalf("only %d days compared; observed %v", checked, observed)
	}
}
