package server

import (
	"bytes"
	"crypto/sha256"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"footsteps/internal/wire"
)

// writeSizes records the size of each response write.
type writeSizes struct {
	http.ResponseWriter
	sizes []int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the server's writer.
func (w *writeSizes) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// TestServeBatchStreamsLargeResponse: a 1 MiB body of `{}` lines answers
// with some 35 MB of outcomes. The handler writes them out as the
// response passes maxPooledBytes instead of holding them all, keeps
// reading the whole body meanwhile, and the client gets exactly the
// bytes a single write of the whole response would have carried.
func TestServeBatchStreamsLargeResponse(t *testing.T) {
	g := newGoldenServer(t, tinyConfig(83))
	rec := &writeSizes{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec.ResponseWriter = w
		g.s.handleBatch(rec, r)
	}))
	defer ts.Close()

	envelope := []byte("{}\n")
	n := (1 << 20) / len(envelope)
	req, werr := wire.ParseRequest(envelope[:2])
	if werr == nil {
		t.Fatal("{} parsed as a valid envelope")
	}
	line := append(wire.AppendOutcomeJSON(nil, werr.Outcome(req.ID)), '\n')
	want := sha256.New()
	for i := 0; i < n; i++ {
		want.Write(line)
	}

	// Sent without a length, as a streaming client sends it: the server
	// cannot tell how much body remains when the response begins, and
	// without full duplex it would discard the next 256 KiB of it.
	body := io.MultiReader(bytes.NewReader(bytes.Repeat(envelope, n)))
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := sha256.New()
	size, err := io.Copy(got, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(n*len(line)) || !bytes.Equal(got.Sum(nil), want.Sum(nil)) {
		t.Fatalf("response of %d bytes differs from the %d unflushed outcome lines (%d bytes)", size, n, n*len(line))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if len(rec.sizes) < 2 {
		t.Fatalf("%d writes: the response was held whole", len(rec.sizes))
	}
	bound := maxPooledBytes + g.s.chunkLines*len(line)
	for i, sz := range rec.sizes {
		if sz > bound {
			t.Fatalf("write %d carries %d bytes, over maxPooledBytes plus one chunk (%d)", i, sz, bound)
		}
	}
}
