package main

import (
	"errors"
	"io"

	"footsteps/internal/trace"
)

// spanAgg folds an FTRC1 span stream into per-layer busy time. Every span
// the program emits is written on its single serial goroutine, so spans
// never overlap except by nesting, and a span is written when it ends:
//
//   - a request (or login) span ends before the section whose apply phase
//     issued it, and starts after that section started;
//   - a section span is followed by its per-shard plan children.
//
// Self time is a span's wall minus the part its children cover: a
// section's self time is its wall minus its plan children and the
// requests inside it, and whatever no section or top-level request
// covers is left to the caller as unattributed (scheduler, unspanned
// callbacks, report building).
type spanAgg struct {
	spans     uint64
	requests  uint64 // request and login spans
	allowed   uint64 // of those, terminal outcome "allowed"
	stageNs   [trace.StagePlan]int64
	sectionNs int64 // Σ section wall
	planNs    int64 // Σ plan child wall
	innerNs   int64 // Σ wall of requests issued inside a section
	topNs     int64 // Σ wall of requests outside every section
	intents   int64 // Σ intents applied by sections
	retries   uint64
	breakers  uint64

	// pending holds the requests written since the last section, until
	// the next section tells which of them it contains.
	pending []reqSpan
}

type reqSpan struct{ start, wall int64 }

func (a *spanAgg) observe(sp *trace.Span) {
	a.spans++
	switch sp.Kind {
	case trace.KindRequest, trace.KindLogin:
		a.requests++
		if sp.Code == 0 {
			a.allowed++
		}
		for _, st := range sp.Stages {
			if st.Stage < trace.StagePlan {
				a.stageNs[st.Stage] += st.Ns
			}
		}
		a.pending = append(a.pending, reqSpan{sp.Start, sp.Wall})
	case trace.KindSection:
		a.sectionNs += sp.Wall
		a.intents += sp.Value
		for _, r := range a.pending {
			if r.start >= sp.Start {
				a.innerNs += r.wall
			} else {
				a.topNs += r.wall
			}
		}
		a.pending = a.pending[:0]
	case trace.KindPlan:
		a.planNs += sp.Wall
	case trace.KindRetry:
		a.retries++
	case trace.KindBreaker:
		a.breakers++
	}
}

// finish settles requests written after the last section: nothing
// contains them.
func (a *spanAgg) finish() {
	for _, r := range a.pending {
		a.topNs += r.wall
	}
	a.pending = a.pending[:0]
}

// sectionSelfNs is section time spent neither planning nor inside the
// requests its apply phase issued: intent dispatch and apply bookkeeping.
func (a *spanAgg) sectionSelfNs() int64 { return a.sectionNs - a.planNs - a.innerNs }

// readAll decodes an FTRC1 stream into the aggregate.
func (a *spanAgg) readAll(r io.Reader) error {
	tr, err := trace.NewReader(r)
	if err != nil {
		return err
	}
	for {
		sp, err := tr.Next()
		if errors.Is(err, io.EOF) {
			a.finish()
			return nil
		}
		if err != nil {
			return err
		}
		a.observe(sp)
	}
}

// liveTrace is a 1/1 tracer whose FTRC1 stream is decoded as it is
// written, so a traced run holds no trace in memory or on disk.
type liveTrace struct {
	tr   *trace.Tracer
	pw   *io.PipeWriter
	agg  spanAgg
	done chan error
}

func startLiveTrace(seed uint64) (*liveTrace, error) {
	pr, pw := io.Pipe()
	lt := &liveTrace{pw: pw, done: make(chan error, 1)}
	go func() {
		err := lt.agg.readAll(pr)
		// Unblock the tracer if decoding stopped early.
		pr.CloseWithError(err)
		lt.done <- err
	}()
	tr, err := trace.New(pw, seed, 1)
	if err != nil {
		pw.CloseWithError(err)
		<-lt.done
		return nil, err
	}
	lt.tr = tr
	return lt, nil
}

// stop flushes the tracer, ends the stream and waits for the decoder.
func (lt *liveTrace) stop() error {
	ferr := lt.tr.Close()
	lt.pw.CloseWithError(ferr)
	derr := <-lt.done
	if ferr != nil {
		return ferr
	}
	return derr
}
