package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"footsteps/internal/wire"
)

// maxBatchBody caps a /v1/batch request body (NDJSON). Generous: at the
// envelope cap this is still thousands of envelopes per post.
const maxBatchBody = 8 << 20

func (s *Server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/request", s.handleRequest)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metricz", s.handleMetrics)
	return mux
}

// writeOutcome writes a single-envelope response, encoded in c's
// response buffer.
func writeOutcome(w http.ResponseWriter, c *call, out wire.Outcome) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(httpStatusFor(out))
	c.resp = append(wire.AppendOutcomeJSON(c.resp[:0], out), '\n')
	_, _ = w.Write(c.resp)
}

// httpStatusFor maps a wire outcome to an HTTP status. Platform-level
// "the request was processed and refused" outcomes (blocked,
// rate-limited, failed) are 200s — the envelope was served; the refusal
// is the payload. Only envelope- and admission-level errors use HTTP
// status codes.
func httpStatusFor(out wire.Outcome) int {
	if out.Status != wire.StatusError {
		return http.StatusOK
	}
	switch out.Code {
	case wire.CodeOverloaded:
		return http.StatusTooManyRequests
	case wire.CodeShuttingDown:
		return http.StatusServiceUnavailable
	case wire.CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	case wire.CodeInternal:
		return http.StatusInternalServerError
	case wire.CodeUnknownToken, wire.CodeSessionRevoked, wire.CodeBadCredentials:
		return http.StatusUnauthorized
	default:
		return http.StatusBadRequest
	}
}

// handleRequest serves one envelope per POST: parse and validate off
// the world loop, enqueue, wait for the loop's outcome.
func (s *Server) handleRequest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.mLatRequest.Observe(time.Since(start).Nanoseconds()) }()
	c := getCall()
	defer putCall(c)

	body, err := readBody(r.Body, c.scan[:wire.MaxEnvelopeBytes+1])
	if err != nil {
		s.mRejected.Inc()
		writeOutcome(w, c, wire.Errf(wire.CodeMalformed, "read body: %v", err).Outcome(0))
		return
	}
	s.stage(c, body)
	s.admit(c)
	writeOutcome(w, c, c.outs[0])
}

// handleBatch serves NDJSON: one envelope per line in, one outcome per
// line out, order preserved. Lines are read and parsed a chunk at a
// time, s.chunkLines lines or the rest of the body, and a chunk is
// admitted only once all its lines are parsed. Admission is per line,
// so a queue that other requests have filled refuses the tail of a
// chunk as overloaded; but a chunk never holds more lines than the
// queue, and the next chunk is admitted only once the last is applied,
// so a batch longer than the queue cannot overload itself. The handler
// wakes once per chunk and writes the whole response at the end, unless
// the response outgrows maxPooledBytes first (see serveChunk).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.mLatBatch.Observe(time.Since(start).Nanoseconds()) }()
	s.mBatch.Inc()
	c := getCall()
	defer putCall(c)
	w.Header().Set("Content-Type", "application/x-ndjson")

	sc := bufio.NewScanner(io.LimitReader(r.Body, maxBatchBody))
	sc.Buffer(c.scan, wire.MaxEnvelopeBytes+2)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		s.stage(c, line)
		if len(c.outs) == s.chunkLines {
			s.serveChunk(w, c)
		}
	}
	if err := sc.Err(); err != nil {
		s.mRejected.Inc()
		c.outs = append(c.outs, wire.Errf(wire.CodeTooLarge, "batch line: %v", err).Outcome(0))
	}
	s.serveChunk(w, c)
	_, _ = w.Write(c.resp)
}

// serveChunk admits c's staged chunk, waits for it, appends its
// outcome lines to the response and empties the chunk. Short malformed
// lines answer with outcomes some 30 times their size, so the response
// is not held whole: once it grows past maxPooledBytes it is written
// out. Full duplex goes on first: without it an HTTP/1 server discards
// up to 256 KiB of the unread body when the response begins. HTTP/2
// needs no switch and reports it unsupported, which is fine to ignore.
func (s *Server) serveChunk(w http.ResponseWriter, c *call) {
	s.admit(c)
	for _, out := range c.outs {
		c.resp = append(wire.AppendOutcomeJSON(c.resp, out), '\n')
		if len(c.resp) > maxPooledBytes {
			_ = http.NewResponseController(w).EnableFullDuplex()
			_, _ = w.Write(c.resp)
			c.resp = c.resp[:0]
		}
	}
	c.reset()
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if !s.accepting.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// handleMetrics serves the telemetry registry snapshot as JSON (same
// shape as the debug listener's /metrics.json).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := s.w.Cfg.Telemetry
	if reg == nil {
		http.Error(w, "telemetry disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(reg.Snapshot())
}
