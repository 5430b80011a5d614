package step

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"footsteps/internal/rng"
	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
)

// TestRunInto pins the section contract: plan sees the pre-apply state,
// apply runs in emission order, the engine counts sections and intents,
// and every traced section has exactly one plan child carrying the
// intents planned.
func TestRunInto(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name      string
		actors    int
		sections  int
		emits     func(i int) int // intents actor i emits
		reuse     bool
		nilEngine bool
	}{
		{name: "nil engine", actors: 5, sections: 2, emits: func(int) int { return 1 }, nilEngine: true},
		{name: "one actor", actors: 1, sections: 1, emits: func(int) int { return 3 }},
		{name: "uneven, fresh buffer", actors: 40, sections: 3, emits: func(i int) int { return i * 7 % 5 }},
		{name: "uneven, reused buffer", actors: 40, sections: 3, emits: func(i int) int { return i * 7 % 5 }, reuse: true},
		{name: "no intents", actors: 6, sections: 2, emits: func(int) int { return 0 }, reuse: true},
		{name: "no actors", actors: 0, sections: 2, emits: func(int) int { return 1 }, reuse: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			reg := telemetry.NewRegistry()
			var spans bytes.Buffer
			tr, err := trace.New(&spans, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			var e *Engine
			if !tc.nilEngine {
				e = NewEngine(new(Phase), reg, tr)
			}
			var buf *Buffer[[2]int]
			if tc.reuse {
				buf = new(Buffer[[2]int])
			}

			state := 0 // shared state: only apply writes it
			var perSection []int
			for s := 0; s < tc.sections; s++ {
				before := state
				var emitted, applied [][2]int
				RunInto(e, buf, tc.actors, func(i int, emit func([2]int)) {
					if state != before {
						t.Fatalf("section %d: actor %d planned against state %d, want pre-apply %d", s, i, state, before)
					}
					for k := 0; k < tc.emits(i); k++ {
						v := [2]int{i, k}
						emitted = append(emitted, v)
						emit(v)
					}
				}, func(v [2]int) {
					state++
					applied = append(applied, v)
				})
				if len(applied) != len(emitted) {
					t.Fatalf("section %d: applied %d intents, emitted %d", s, len(applied), len(emitted))
				}
				for k := range emitted {
					if applied[k] != emitted[k] {
						t.Fatalf("section %d: apply %d got %v, emitted %v", s, k, applied[k], emitted[k])
					}
				}
				if tc.actors > 0 {
					perSection = append(perSection, len(emitted))
				}
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}

			if tc.nilEngine {
				if n := len(reg.Snapshot().Counters); n != 0 || tr.Spans() != 0 {
					t.Fatalf("nil engine recorded %d counters, %d spans", n, tr.Spans())
				}
				return
			}
			total := 0
			for _, n := range perSection {
				total += n
			}
			snap := reg.Snapshot()
			if got := snap.Counters["step.sections"]; got != int64(len(perSection)) {
				t.Errorf("step.sections = %d, want %d", got, len(perSection))
			}
			if got := snap.Counters["step.intents"]; got != int64(total) {
				t.Errorf("step.intents = %d, want %d", got, total)
			}
			checkSectionSpans(t, spans.Bytes(), perSection)
		})
	}
}

// collect runs one section where each actor emits a deterministic
// pseudo-random number of items drawn from its own forked stream, and
// returns the applied sequence.
func collect(e *Engine, b *Buffer[string], actors int, seed uint64) []string {
	root := rng.New(seed)
	var out []string
	RunInto(e, b, actors, func(i int, emit func(string)) {
		r := root.Fork(uint64(i))
		n := r.Intn(7)
		for k := 0; k < n; k++ {
			emit(fmt.Sprintf("a%d.%d:%d", i, k, r.Uint64()))
		}
	}, func(v string) { out = append(out, v) })
	return out
}

// TestRunMergeOrderIndependentOfEngine: the apply sequence is the same
// whether the section runs on a nil engine, on one with counters and a
// span tracer, or with a reused buffer — observers and scratch reuse
// never reorder intents.
func TestRunMergeOrderIndependentOfEngine(t *testing.T) {
	t.Parallel()
	check := func(seed uint64, actors uint8) bool {
		n := int(actors%33) + 1
		want := collect(nil, nil, n, seed)
		tr, err := trace.New(io.Discard, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		buf := new(Buffer[string])
		collect(nil, buf, n, seed+1) // leave stale intents in the buffer
		got := collect(NewEngine(new(Phase), telemetry.NewRegistry(), tr), buf, n, seed)
		if len(want) != len(got) {
			return false
		}
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestRunBarrierBeforeApply: no apply may run before every actor has
// planned (planning must observe the pre-section state).
func TestRunBarrierBeforeApply(t *testing.T) {
	t.Parallel()
	planned := 0
	const actors = 50
	RunInto(NewEngine(new(Phase), nil, nil), nil, actors, func(i int, emit func(int)) {
		planned++
		emit(i)
	}, func(int) {
		if planned != actors {
			t.Errorf("apply ran with only %d/%d actors planned", planned, actors)
		}
	})
}

// TestRunAppliesSerially: apply never re-enters itself, and runs exactly
// once per emitted intent.
func TestRunAppliesSerially(t *testing.T) {
	t.Parallel()
	inApply := 0
	applied := 0
	RunInto(NewEngine(new(Phase), nil, nil), nil, 40, func(i int, emit func(int)) {
		for k := 0; k < 5; k++ {
			emit(i*10 + k)
		}
	}, func(int) {
		inApply++
		if inApply != 1 {
			t.Error("apply re-entered")
		}
		applied++
		inApply--
	})
	if applied != 40*5 {
		t.Fatalf("applied %d intents, want %d", applied, 40*5)
	}
}

// TestTracerObservesRun: a wired span tracer records the section with
// one plan child carrying the intent count, the engine counts the section
// and its intents, and apply sees what it sees without them.
func TestTracerObservesRun(t *testing.T) {
	t.Parallel()
	run := func(e *Engine) int {
		sum := 0
		RunInto(e, nil, 6, func(i int, emit func(int)) {
			emit(i)
			emit(i * 10)
		}, func(v int) { sum += v })
		return sum
	}
	reg := telemetry.NewRegistry()
	var spans bytes.Buffer
	tr, err := trace.New(&spans, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := run(NewEngine(new(Phase), reg, tr))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	untraced := run(nil)
	if want := (0 + 1 + 2 + 3 + 4 + 5) * 11; sum != want || untraced != want {
		t.Fatalf("applied sum %d traced, %d untraced, want %d", sum, untraced, want)
	}
	snap := reg.Snapshot()
	if snap.Counters["step.sections"] != 1 {
		t.Fatalf("sections = %d", snap.Counters["step.sections"])
	}
	if snap.Counters["step.intents"] != 12 {
		t.Fatalf("intents = %d", snap.Counters["step.intents"])
	}
	checkSectionSpans(t, spans.Bytes(), []int{12})
}

// checkSectionSpans decodes an FTRC1 stream and checks it holds one
// section per entry of intents, each followed by exactly one plan child
// whose Value is that section's intent count.
func checkSectionSpans(t *testing.T, stream []byte, intents []int) {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var got []trace.Span
	for {
		sp, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, *sp)
	}
	if len(got) != 2*len(intents) {
		t.Fatalf("trace holds %d spans, want a section and a plan child for each of %d sections", len(got), len(intents))
	}
	for s, n := range intents {
		sec, plan := got[2*s], got[2*s+1]
		if sec.Kind != trace.KindSection || sec.Value != int64(n) {
			t.Errorf("section %d span = %+v, want KindSection with Value %d", s, sec, n)
		}
		if plan.Kind != trace.KindPlan || plan.Parent != sec.ID() || plan.Shard != 0 || plan.Seq != sec.Seq+1 || plan.Value != int64(n) {
			t.Errorf("section %d plan child = %+v, want KindPlan under %d, Shard 0, Seq %d, Value %d", s, plan, sec.ID(), sec.Seq+1, n)
		}
	}
}
