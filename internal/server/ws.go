package server

import (
	"bufio"
	"crypto/sha1"
	"encoding/base64"
	"net"
	"net/http"
	"strings"
	"sync"

	"footsteps/internal/platform"
	"footsteps/internal/telemetry"
	"footsteps/internal/wire"
)

// The event stream endpoint speaks minimal server-side RFC 6455: the
// opening handshake plus unmasked text frames out. It exists so
// external measurement clients can watch the platform's event stream
// live without linking the library; the module has no dependencies, so
// the few dozen lines of framing are hand-rolled here.

const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// wsSendBuf is each subscriber's outbound buffer, in events. A slow
// consumer overflows it and loses events (counted, never blocking the
// world loop); the stream is observability, not a durability channel —
// FSEV1 capture is.
const wsSendBuf = 1024

type wsConn struct {
	conn net.Conn
	ch   chan []byte
	once sync.Once
	dead chan struct{}
}

func (c *wsConn) close() {
	c.once.Do(func() {
		close(c.dead)
		c.conn.Close()
	})
}

// broadcaster fans platform events out to WS subscribers. emit runs on
// the world loop and must never block: sends are non-blocking drops.
type broadcaster struct {
	mu      sync.Mutex
	subs    map[*wsConn]struct{}
	scratch []byte
	dropped *telemetry.Counter
	clients *telemetry.Gauge
}

func newBroadcaster() *broadcaster {
	return &broadcaster{subs: make(map[*wsConn]struct{})}
}

// emit is the platform event subscriber (wired at server construction,
// before the loop emits anything).
func (b *broadcaster) emit(ev platform.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) == 0 {
		return
	}
	b.scratch = wire.AppendEventJSON(b.scratch[:0], wire.EventFrom(ev))
	for c := range b.subs {
		if len(c.ch) == cap(c.ch) {
			b.dropped.Inc()
			continue
		}
		// Each subscriber needs its own copy: the scratch is reused on
		// the next event, possibly before a slow writer drains. The send
		// cannot block: emit, under b.mu, is the channel's only sender,
		// and the buffer has room.
		c.ch <- append([]byte(nil), b.scratch...)
	}
}

func (b *broadcaster) add(c *wsConn) {
	b.mu.Lock()
	b.subs[c] = struct{}{}
	n := len(b.subs)
	b.mu.Unlock()
	b.clients.Set(int64(n))
}

func (b *broadcaster) remove(c *wsConn) {
	b.mu.Lock()
	delete(b.subs, c)
	n := len(b.subs)
	b.mu.Unlock()
	b.clients.Set(int64(n))
	c.close()
}

func (b *broadcaster) closeAll() {
	b.mu.Lock()
	conns := make([]*wsConn, 0, len(b.subs))
	for c := range b.subs {
		conns = append(conns, c)
	}
	b.subs = make(map[*wsConn]struct{})
	b.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
	b.clients.Set(0)
}

// handleEvents upgrades to a WebSocket and streams every platform event
// as one JSON text frame (the wire.Event schema).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	key := r.Header.Get("Sec-WebSocket-Key")
	if !headerHas(r, "Connection", "upgrade") || !headerHas(r, "Upgrade", "websocket") || key == "" {
		http.Error(w, "websocket upgrade required", http.StatusBadRequest)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "hijack unsupported", http.StatusInternalServerError)
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		return
	}
	sum := sha1.Sum([]byte(key + wsGUID))
	accept := base64.StdEncoding.EncodeToString(sum[:])
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + accept + "\r\n\r\n"
	// Subscribe before the handshake completes: a client that acts as
	// soon as it reads the 101 must see the events its actions emit.
	c := &wsConn{conn: conn, ch: make(chan []byte, wsSendBuf), dead: make(chan struct{})}
	s.bcast.add(c)
	if _, err := brw.WriteString(resp); err != nil || brw.Flush() != nil {
		s.bcast.remove(c)
		return
	}

	// Reader: we never act on client frames, but reading until error is
	// how we notice the peer went away (close frame, RST, FIN).
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				s.bcast.remove(c)
				return
			}
		}
	}()
	// Writer: one text frame per event.
	go func() {
		bw := bufio.NewWriter(conn)
		for {
			select {
			case <-c.dead:
				return
			case msg := <-c.ch:
				if writeTextFrame(bw, msg) != nil || bw.Flush() != nil {
					s.bcast.remove(c)
					return
				}
			}
		}
	}()
}

// headerHas reports whether the (possibly comma-separated) header
// contains want as a token, case-insensitively — e.g. Connection:
// "keep-alive, Upgrade".
func headerHas(r *http.Request, name, want string) bool {
	for _, v := range r.Header.Values(name) {
		for _, tok := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(tok), want) {
				return true
			}
		}
	}
	return false
}

// writeTextFrame writes one unmasked server→client text frame
// (FIN set, opcode 0x1) per RFC 6455 §5.2.
func writeTextFrame(bw *bufio.Writer, payload []byte) error {
	if err := bw.WriteByte(0x81); err != nil {
		return err
	}
	n := len(payload)
	switch {
	case n < 126:
		if err := bw.WriteByte(byte(n)); err != nil {
			return err
		}
	case n < 1<<16:
		if err := bw.WriteByte(126); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(n >> 8)); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(n)); err != nil {
			return err
		}
	default:
		if err := bw.WriteByte(127); err != nil {
			return err
		}
		for shift := 56; shift >= 0; shift -= 8 {
			if err := bw.WriteByte(byte(n >> shift)); err != nil {
				return err
			}
		}
	}
	_, err := bw.Write(payload)
	return err
}
