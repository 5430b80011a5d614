package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"time"

	"footsteps"
	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/server"
)

// runServe hosts the world behind the HTTP/WS front end until a signal
// arrives on sigc (SIGINT or SIGTERM), then shuts down gracefully: admission closes, the world loop
// drains and seals the FING1 ingress log, the FSEV1 capture flushes,
// and the stream hash prints — the artifact `footsteps replay
// -ingress-log` verifies against.
func (c *cli) runServe(cfg footsteps.Config, set server.Settings, record string, sigc <-chan os.Signal) error {
	w := core.NewWorld(cfg)
	c.telemetryAttach(w)

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

	s, err := server.New(w, set)
	if err != nil {
		return err
	}
	if err := s.Start(); err != nil {
		return err
	}
	set = s.Settings()
	fmt.Fprintf(c.stdout, "Serving on http://%s (pace %gx, queue %d)\n", s.Addr(), set.Pace, set.QueueDepth)
	if set.IngressLog != "" {
		fmt.Fprintf(c.stdout, "Ingress log: %s\n", set.IngressLog)
	}

	sig := <-sigc
	fmt.Fprintf(c.stderr, "footsteps: %v: draining and sealing logs\n", sig)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := wr.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "Stream: %d events, sha256 %x\n", wr.Count(), h.Sum(nil))
	if recordFile != nil {
		fmt.Fprintf(c.stdout, "FSEV1 capture written to %s\n", record)
	}
	c.telemetryReport(w)
	return nil
}

// runReplayIngress rebuilds the world and re-drives a recorded serve
// session from its FING1 ingress log, then (with -against) verifies the
// reproduced FSEV1 stream byte-for-byte against the live capture.
func (c *cli) runReplayIngress(cfg footsteps.Config, ingressLog, against, record string) error {
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
	fmt.Fprintf(c.stdout, "Ingress replay: %d envelopes applied, %d events, stream sha256 %x\n",
		applied, wr.Count(), sha256.Sum256(buf.Bytes()))

	if record != "" {
		if err := os.WriteFile(record, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "Replayed FSEV1 capture written to %s\n", record)
	}
	if against == "" {
		return nil
	}
	want, err := os.ReadFile(against)
	if err != nil {
		return err
	}
	return c.verifyAgainst("Ingress replay", against, want, buf.Bytes())
}
