package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"footsteps/internal/core"
	"footsteps/internal/telemetry"
	"footsteps/internal/wire"
)

// Serving defaults, for the Settings fields left zero.
const (
	DefaultQueueDepth = 8192
	DefaultPace       = 60.0 // simulated seconds per wall second
	// DefaultMaxBatch caps how many queued envelopes one drain applies,
	// keeping worst-case drain latency flat under load; the remainder
	// stays queued for the next drain.
	DefaultMaxBatch = 4096
	// pollInterval is the wall cadence at which the loop advances
	// simulated time when no ingress arrives.
	pollInterval = 5 * time.Millisecond
)

// Settings shape how network ingress reaches the world loop, never what
// the world does with it. They are not part of core.Config, so a world
// served one way restores and replays under any other.
type Settings struct {
	// Addr is the listen address (host:port). Empty picks a free
	// loopback port.
	Addr string

	// QueueDepth bounds the ingress queue between handler goroutines and
	// the world loop. A full queue fails requests with the wire
	// "overloaded" code instead of blocking handlers. 0 means
	// DefaultQueueDepth.
	QueueDepth int

	// Pace is how many simulated seconds elapse per wall-clock second
	// (1.0 = real time; 0 means DefaultPace). Pacing only chooses the
	// drain instants; the recorded ingress log replays identically at
	// any pace.
	Pace float64

	// IngressLog, when non-empty, records every admitted envelope with
	// its drain instant to this FING1 file, making the served run
	// replayable (cmd/footsteps replay -ingress-log).
	IngressLog string
}

// item is one admitted envelope in flight between a handler goroutine
// and the world loop: staged envelope k of call c.
type item struct {
	c   *call
	k   int
	enq time.Time // wall time of admission, for the wait histogram
}

// Server runs the HTTP/WS front end and the single-writer world loop.
// Construct with New, start with Start, stop with Shutdown.
type Server struct {
	w    *core.World
	exec *Executor
	q    *core.IngestQueue[item]

	// set is the Settings New was given, with defaults filled in.
	set Settings
	// chunkLines is how many lines a handler stages before it admits
	// them: DefaultMaxBatch, or the queue depth if that is smaller.
	chunkLines int

	ln      net.Listener
	httpSrv *http.Server
	bcast   *broadcaster

	logw *wire.LogWriter
	logf *os.File

	// accepting gates admission; false turns every new request into a
	// typed shutting_down rejection.
	accepting atomic.Bool
	stopLoop  chan struct{}
	loopDone  chan struct{}
	sweepStop chan struct{}

	// simStart/wallStart anchor the pacing line: the target simulated
	// instant is simStart + pace·(wall − wallStart).
	simStart  time.Time
	wallStart time.Time

	// pending holds envelopes drained but deferred past DefaultMaxBatch.
	pending []item
	// logEnvs is the loop's scratch for one FING1 batch record.
	logEnvs [][]byte

	// Telemetry (all nil-safe when the world has no registry).
	mReqs        *telemetry.Counter // admitted request envelopes
	mBatch       *telemetry.Counter // /v1/batch HTTP posts
	mRejected    *telemetry.Counter // envelope-level rejections
	mOverloaded  *telemetry.Counter // queue-full rejections
	mApplied     *telemetry.Counter // envelopes applied by the loop
	mDrains      *telemetry.Counter // non-empty drain batches
	mQueueDepth  *telemetry.Gauge
	mSessions    *telemetry.Gauge
	mWSClients   *telemetry.Gauge
	mWSDropped   *telemetry.Counter
	mLatRequest  *telemetry.Histogram // /v1/request wall latency
	mLatBatch    *telemetry.Histogram // /v1/batch wall latency (whole post)
	mEnqueueWait *telemetry.Histogram // admission → drain pickup
}

// New builds a server over an already-constructed world. The world must
// not be running yet: New subscribes the event broadcaster, which must
// complete before the loop emits. Returns an error if the ingress log
// file (set.IngressLog) cannot be created.
func New(w *core.World, set Settings) (*Server, error) {
	if set.QueueDepth <= 0 {
		set.QueueDepth = DefaultQueueDepth
	}
	if set.Pace <= 0 {
		set.Pace = DefaultPace
	}
	s := &Server{
		w:          w,
		exec:       NewExecutor(w),
		set:        set,
		chunkLines: min(DefaultMaxBatch, set.QueueDepth),
		q:          core.NewIngestQueue[item](set.QueueDepth),
		bcast:      newBroadcaster(),
		stopLoop:   make(chan struct{}),
		loopDone:   make(chan struct{}),
		sweepStop:  make(chan struct{}),
	}
	w.Plat.Log().Subscribe(s.bcast.emit)

	if reg := w.Cfg.Telemetry; reg != nil {
		s.mReqs = reg.Counter("server.requests")
		s.mBatch = reg.Counter("server.batch.posts")
		s.mRejected = reg.Counter("server.rejected")
		s.mOverloaded = reg.Counter("server.overloaded")
		s.mApplied = reg.Counter("server.applied")
		s.mDrains = reg.Counter("server.drains")
		s.mQueueDepth = reg.Gauge("server.queue.depth")
		s.mSessions = reg.Gauge("server.sessions")
		s.mWSClients = reg.Gauge("server.ws.clients")
		s.mWSDropped = reg.Counter("server.ws.dropped")
		s.mLatRequest = reg.Histogram("server.latency.request", telemetry.DurationBuckets)
		s.mLatBatch = reg.Histogram("server.latency.batch", telemetry.DurationBuckets)
		s.mEnqueueWait = reg.Histogram("server.enqueue.wait", telemetry.DurationBuckets)
	}
	s.bcast.dropped = s.mWSDropped
	s.bcast.clients = s.mWSClients

	if set.IngressLog != "" {
		f, err := os.Create(set.IngressLog)
		if err != nil {
			return nil, fmt.Errorf("server: ingress log: %w", err)
		}
		lw, err := wire.NewLogWriter(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("server: ingress log: %w", err)
		}
		s.logf, s.logw = f, lw
	}
	return s, nil
}

// Settings returns the server's settings, defaults filled in.
func (s *Server) Settings() Settings { return s.set }

// Start listens on the configured address (Settings.Addr; port 0 picks
// a free port) and launches the HTTP front end and the world loop.
func (s *Server) Start() error {
	addr := s.set.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen: %w", err)
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux()}
	s.simStart = s.w.Sched.Clock().Now()
	s.wallStart = time.Now()
	s.accepting.Store(true)
	go s.httpSrv.Serve(ln)
	go s.loop()
	return nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// targetNow maps the current wall clock onto the pacing line. The
// result is monotone because the wall clock is.
func (s *Server) targetNow() time.Time {
	elapsed := time.Since(s.wallStart)
	return s.simStart.Add(time.Duration(float64(elapsed) * s.set.Pace))
}

// loop is the single-writer world loop: it alternates between advancing
// simulated time along the pacing line and draining admitted ingress at
// the current target instant. Nothing else ever mutates the world while
// the loop runs.
func (s *Server) loop() {
	defer close(s.loopDone)
	ticker := time.NewTicker(pollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopLoop:
			// Final cycles: everything still queued gets applied at the
			// stop instant, then the log is sealed. Admission is already
			// closed, so the queue can only shrink.
			t := s.targetNow()
			for {
				s.drainAt(t)
				if len(s.pending) == 0 && s.q.Len() == 0 {
					break
				}
			}
			if s.logw != nil {
				_ = s.logw.End(t.UnixNano())
				_ = s.logf.Close()
			}
			return
		case <-s.q.Ready():
		case <-ticker.C:
		}
		s.drainAt(s.targetNow())
	}
}

// drainAt advances the world to the instant t and applies at most
// DefaultMaxBatch queued envelopes there. Leftovers stay in s.pending for the
// next cycle.
func (s *Server) drainAt(t time.Time) {
	s.pending = s.q.Drain(s.pending)
	s.mQueueDepth.Set(int64(len(s.pending)))
	n := min(len(s.pending), DefaultMaxBatch)
	batch := s.pending[:n]
	if len(batch) == 0 {
		// Nothing to apply: just keep simulated time tracking the
		// pacing line. Unlogged by design — RunUntil calls with no
		// interleaved mutation compose, so replay needs only the
		// logged instants.
		s.w.ServeTick(t, nil)
		return
	}
	// Counted before any call completes, so a handler holding its
	// outcomes also sees them counted.
	s.mApplied.Add(int64(len(batch)))
	s.mDrains.Inc()
	now := time.Now()
	s.w.ServeTick(t, func() {
		if s.logw != nil {
			for _, it := range batch {
				s.logEnvs = append(s.logEnvs, it.c.raw(it.k))
			}
			_ = s.logw.Batch(t.UnixNano(), s.logEnvs)
			clear(s.logEnvs)
			s.logEnvs = s.logEnvs[:0]
		}
		for i, it := range batch {
			s.mEnqueueWait.Observe(now.Sub(it.enq).Nanoseconds())
			it.c.complete(it.k, s.exec.ApplyRequest(it.c.envs[it.k].req))
			batch[i] = item{}
		}
	})
	s.mSessions.Set(int64(s.exec.Sessions()))
	s.pending = append(s.pending[:0], s.pending[n:]...)
}

// submit admits staged envelope k of c, or returns a typed admission
// error (overloaded / shutting down).
func (s *Server) submit(c *call, k int) *wire.Error {
	if !s.accepting.Load() {
		return wire.Errf(wire.CodeShuttingDown, "server is draining")
	}
	if !s.q.TryPush(item{c: c, k: k, enq: time.Now()}) {
		s.mOverloaded.Inc()
		return wire.Errf(wire.CodeOverloaded, "ingress queue full (%d)", s.set.QueueDepth)
	}
	s.mReqs.Inc()
	return nil
}

// Shutdown closes admission, lets the world loop drain everything
// in flight and seal the ingress log, then stops the HTTP listener
// gracefully (bounded by ctx) and disconnects event subscribers.
func (s *Server) Shutdown(ctx context.Context) error {
	wasAccepting := s.accepting.Swap(false)
	if !wasAccepting && s.httpSrv == nil {
		return nil
	}
	close(s.stopLoop)
	select {
	case <-s.loopDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	// Stragglers that raced past the accepting check after the final
	// drain never reached the world; answer them as shutting down so
	// their handlers (and http.Shutdown) can finish.
	go func() {
		reject := wire.Errf(wire.CodeShuttingDown, "server is draining")
		for {
			select {
			case <-s.sweepStop:
				return
			case <-s.q.Ready():
			case <-time.After(pollInterval):
			}
			for _, it := range s.q.Drain(nil) {
				it.c.complete(it.k, reject.Outcome(it.c.envs[it.k].req.ID))
			}
		}
	}()
	err := s.httpSrv.Shutdown(ctx)
	close(s.sweepStop)
	s.bcast.closeAll()
	if cerr := s.ln.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) && err == nil {
		err = cerr
	}
	return err
}
