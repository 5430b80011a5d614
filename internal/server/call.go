package server

import (
	"io"
	"sync"
	"sync/atomic"

	"footsteps/internal/wire"
)

// maxPooledBytes caps the buffers a pooled call keeps, so one huge
// batch does not pin its memory for the life of the process.
const maxPooledBytes = 1 << 20

// envelope is one staged line of a request: parsed once by the
// handler, applied by the world loop from its parsed form, and logged
// to FING1 from its raw bytes, slab[off:end] of its call.
type envelope struct {
	req      wire.Request
	off, end int
	idx      int // its outcome's slot in call.outs
}

// call is one HTTP request in flight, and the arena its handler reuses
// from request to request. The handler works a chunk at a time: it
// stages up to Server.chunkLines lines, sizing outs, then admits the
// chunk's envelopes and waits for the world loop to apply them, and
// encodes their outcomes into resp before it stages the next chunk.
// From the first submit until admit returns, the loop writes outs and
// reads envs and slab, and the handler leaves all three alone.
//
// left counts the chunk's admitted envelopes not yet applied, plus one
// hold the handler keeps until it has admitted all of them. The loop
// writes outs[idx] for each envelope it applies and signals done when
// it brings left to zero; if the handler's release brings it to zero
// instead, nothing is in flight and nobody signals. Either way the
// handler wakes at most once per chunk, and the arena goes back to the
// pool only after the last wake.
type call struct {
	left atomic.Int64
	done chan struct{} // buffered 1: the loop never blocks on it

	envs []envelope
	outs []wire.Outcome // one per staged line, in line order
	slab []byte         // the staged envelopes' bytes, back to back

	scan []byte // request body or batch scanner buffer
	resp []byte // encoded response
}

var callPool = sync.Pool{New: func() any {
	return &call{done: make(chan struct{}, 1), scan: make([]byte, wire.MaxEnvelopeBytes+2)}
}}

func getCall() *call { return callPool.Get().(*call) }

// putCall returns c to the pool. The caller must have waited for every
// chunk it admitted: queued items and the ingress log point into c.
func putCall(c *call) {
	if cap(c.resp) > maxPooledBytes || cap(c.slab) > maxPooledBytes {
		return
	}
	c.reset()
	c.resp = c.resp[:0]
	callPool.Put(c)
}

// reset empties the staged chunk.
func (c *call) reset() {
	clear(c.envs)
	clear(c.outs)
	c.envs, c.outs, c.slab = c.envs[:0], c.outs[:0], c.slab[:0]
}

// raw returns the bytes of staged envelope k.
func (c *call) raw(k int) []byte {
	e := &c.envs[k]
	return c.slab[e.off:e.end:e.end]
}

// complete records the outcome of staged envelope k; the world loop
// and the shutdown sweep call it once per admitted envelope.
func (c *call) complete(k int, out wire.Outcome) {
	c.outs[c.envs[k].idx] = out
	if c.left.Add(-1) == 0 {
		c.done <- struct{}{}
	}
}

// stage parses one envelope line. A valid one is copied into the slab
// and staged for admission; a rejected one is answered in place.
func (s *Server) stage(c *call, line []byte) {
	req, werr := wire.ParseRequest(line)
	if werr != nil {
		s.mRejected.Inc()
		c.outs = append(c.outs, werr.Outcome(req.ID))
		return
	}
	off := len(c.slab)
	c.slab = append(c.slab, line...)
	c.envs = append(c.envs, envelope{req: req, off: off, end: len(c.slab), idx: len(c.outs)})
	c.outs = append(c.outs, wire.Outcome{})
}

// admit submits c's staged envelopes in line order, answering in place
// any the queue refuses, then waits until the world loop has applied
// every envelope it admitted.
func (s *Server) admit(c *call) {
	c.left.Store(1)
	for k := range c.envs {
		c.left.Add(1)
		if werr := s.submit(c, k); werr != nil {
			c.left.Add(-1)
			c.outs[c.envs[k].idx] = werr.Outcome(c.envs[k].req.ID)
		}
	}
	if c.left.Add(-1) > 0 {
		<-c.done
	}
}

// readBody reads r into buf until EOF or until buf is full, and returns
// what it read.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf[:n], err
		}
	}
	return buf[:n], nil
}
