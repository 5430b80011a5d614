package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/netip"
	"strings"
	"testing"
	"time"

	"footsteps/internal/platform"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{V: 1, ID: 7, Op: OpRegister, Username: "alice", Password: "pw", Country: "BRA"},
		{V: 1, Op: OpLogin, Username: "alice", Password: "pw", ASN: 64512, API: "oauth", Client: "android-7.1"},
		{V: 1, ID: 2, Op: OpLike, Token: "tok-1", Post: 99},
		{V: 1, Op: OpFollow, Token: "tok-1", Target: 42},
		{V: 1, Op: OpUnfollow, Token: "tok-1", Target: 42},
		{V: 1, Op: OpComment, Token: "tok-1", Post: 99, Text: "nice pic!"},
		{V: 1, Op: OpPost, Token: "tok-1", Tags: []string{"l4l", "follow4follow"}},
	}
	for _, want := range reqs {
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("marshal %+v: %v", want, err)
		}
		got, werr := ParseRequest(data)
		if werr != nil {
			t.Fatalf("ParseRequest(%s): %v", data, werr)
		}
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(gotJSON, data) {
			t.Errorf("round trip changed envelope:\n in: %s\nout: %s", data, gotJSON)
		}
	}
}

func TestParseRequestRejections(t *testing.T) {
	cases := []struct {
		name string
		data string
		code Code
	}{
		{"empty", ``, CodeMalformed},
		{"not json", `{{{`, CodeMalformed},
		{"json scalar", `42`, CodeMalformed},
		{"wrong field type", `{"v":1,"op":"like","post":"ninety"}`, CodeMalformed},
		{"no version", `{"op":"like","token":"t","post":1}`, CodeBadVersion},
		{"future version", `{"v":2,"op":"like","token":"t","post":1}`, CodeBadVersion},
		{"no op", `{"v":1}`, CodeUnknownOp},
		{"unknown op", `{"v":1,"op":"teleport"}`, CodeUnknownOp},
		{"register no password", `{"v":1,"op":"register","username":"a"}`, CodeMissingField},
		{"login no username", `{"v":1,"op":"login","password":"pw"}`, CodeMissingField},
		{"login bad api", `{"v":1,"op":"login","username":"a","password":"pw","api":"soap"}`, CodeBadField},
		{"like no token", `{"v":1,"op":"like","post":5}`, CodeMissingField},
		{"like no post", `{"v":1,"op":"like","token":"t"}`, CodeMissingField},
		{"follow no target", `{"v":1,"op":"follow","token":"t"}`, CodeMissingField},
		{"comment no text", `{"v":1,"op":"comment","token":"t","post":5}`, CodeMissingField},
		{"post no token", `{"v":1,"op":"post"}`, CodeMissingField},
		{"empty tag", `{"v":1,"op":"post","token":"t","tags":[""]}`, CodeBadField},
		{"oversize text", `{"v":1,"op":"comment","token":"t","post":5,"text":"` + strings.Repeat("x", MaxTextBytes+1) + `"}`, CodeBadField},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, werr := ParseRequest([]byte(tc.data))
			if werr == nil {
				t.Fatalf("ParseRequest accepted %q", tc.data)
			}
			if werr.Code != tc.code {
				t.Errorf("code = %q, want %q (detail: %s)", werr.Code, tc.code, werr.Detail)
			}
		})
	}
	huge := append([]byte(`{"v":1,"op":"post","token":"t","text":"`), bytes.Repeat([]byte("y"), MaxEnvelopeBytes)...)
	if _, werr := ParseRequest(huge); werr == nil || werr.Code != CodeTooLarge {
		t.Errorf("oversize envelope: got %v, want CodeTooLarge", werr)
	}
	if _, werr := ParseRequest([]byte(`{"v":1,"op":"post","token":"t","tags":["a","a","a","a","a","a","a","a","a","a","a","a","a","a","a","a","a"]}`)); werr == nil || werr.Code != CodeBadField {
		t.Errorf("too many tags: got %v, want CodeBadField", werr)
	}
}

func TestErrorOutcome(t *testing.T) {
	werr := Errf(CodeOverloaded, "queue full")
	out := werr.Outcome(17)
	if out.V != Version || out.ID != 17 || out.Status != StatusError || out.Code != CodeOverloaded {
		t.Errorf("Outcome = %+v", out)
	}
	if !strings.Contains(werr.Error(), "overloaded") {
		t.Errorf("Error() = %q", werr.Error())
	}
}

func TestStatusForTotal(t *testing.T) {
	want := map[platform.Outcome]Status{
		platform.OutcomeAllowed:     StatusAllowed,
		platform.OutcomeBlocked:     StatusBlocked,
		platform.OutcomeRateLimited: StatusRateLimited,
		platform.OutcomeFailed:      StatusFailed,
		platform.OutcomeUnavailable: StatusUnavailable,
	}
	for o, s := range want {
		if got := StatusFor(o); got != s {
			t.Errorf("StatusFor(%v) = %q, want %q", o, got, s)
		}
	}
	if got := StatusFor(platform.Outcome(99)); got != StatusError {
		t.Errorf("StatusFor(out of range) = %q, want %q", got, StatusError)
	}
}

func TestCodeForError(t *testing.T) {
	cases := map[error]Code{
		nil:                         CodeNone,
		platform.ErrRateLimited:     CodeRateLimited,
		platform.ErrBlocked:         CodeBlocked,
		platform.ErrUnavailable:     CodeUnavailable,
		platform.ErrSessionRevoked:  CodeSessionRevoked,
		platform.ErrBadCredentials:  CodeBadCredentials,
		platform.ErrUsernameTaken:   CodeUsernameTaken,
		platform.ErrAccountGone:     CodeAccountGone,
		platform.ErrNoSession:       CodeUnknownToken,
		errors.New("anything else"): CodeNotFound,
	}
	for err, code := range cases {
		if got := CodeForError(err); got != code {
			t.Errorf("CodeForError(%v) = %q, want %q", err, got, code)
		}
	}
}

func TestPlatformRequestMapping(t *testing.T) {
	r := Request{V: 1, Op: OpComment, Token: "t", Post: 9, Text: "hi"}
	preq, ok := r.PlatformRequest()
	if !ok || preq.Action != platform.ActionComment || preq.Post != 9 || preq.Text != "hi" {
		t.Errorf("PlatformRequest = %+v, %v", preq, ok)
	}
	for _, op := range []Op{OpRegister, OpLogin} {
		if _, ok := (&Request{Op: op}).PlatformRequest(); ok {
			t.Errorf("%s should have no platform mapping", op)
		}
	}
	if (&Request{API: "oauth"}).APIKind() != platform.APIOAuth {
		t.Error("APIKind(oauth)")
	}
	if (&Request{}).APIKind() != platform.APIPrivate {
		t.Error("APIKind(default)")
	}
}

func TestAppendEventJSONMatchesEncodingJSON(t *testing.T) {
	evs := []platform.Event{
		{
			Seq: 1, Time: time.Unix(1504224000, 500), Type: platform.ActionFollow,
			Actor: 3, Target: 9, IP: netip.MustParseAddr("203.0.113.7"), ASN: 64512,
			Client: "android-7.1", API: platform.APIPrivate, Outcome: platform.OutcomeAllowed,
		},
		{
			Seq: 2, Time: time.Unix(1504224001, 0), Type: platform.ActionLike,
			Actor: 4, Post: 77, API: platform.APIOAuth, Outcome: platform.OutcomeRateLimited,
		},
		{
			Seq: 3, Time: time.Unix(1504224002, 0), Type: platform.ActionFollow,
			Actor: 5, Target: 3, Outcome: platform.OutcomeAllowed, Enforcement: true, Duplicate: true,
		},
		{
			// A wire login's client string reaches the stream verbatim.
			Seq: 4, Time: time.Unix(1504224003, 0), Type: platform.ActionLogin, Actor: 6,
			Client: "a\x01<b>&\x7f\b\f\xe2\x80\xa8\xff\"\\", Outcome: platform.OutcomeAllowed,
		},
	}
	for _, pev := range evs {
		ev := EventFrom(pev)
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendEventJSON(nil, ev)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendEventJSON diverges from encoding/json:\n got: %s\nwant: %s", got, want)
		}
		var back Event
		if err := json.Unmarshal(got, &back); err != nil {
			t.Errorf("AppendEventJSON output does not parse: %v", err)
		}
	}
}

func TestLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b1 := [][]byte{[]byte(`{"v":1,"op":"follow","token":"t","target":4}`)}
	b2 := [][]byte{[]byte(`{"v":1,"op":"like","token":"t","post":9}`), []byte(`{"v":1,"op":"post","token":"t"}`)}
	if err := lw.Batch(1000, b1); err != nil {
		t.Fatal(err)
	}
	if err := lw.Batch(2500, b2); err != nil {
		t.Fatal(err)
	}
	if err := lw.End(9000); err != nil {
		t.Fatal(err)
	}

	recs, err := readLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].AtNanos != 1000 || len(recs[0].Envelopes) != 1 || !bytes.Equal(recs[0].Envelopes[0], b1[0]) {
		t.Errorf("rec 0 = %+v", recs[0])
	}
	if recs[1].AtNanos != 2500 || len(recs[1].Envelopes) != 2 || !bytes.Equal(recs[1].Envelopes[1], b2[1]) {
		t.Errorf("rec 1 = %+v", recs[1])
	}
	if !recs[2].End || recs[2].AtNanos != 9000 || recs[2].Envelopes != nil {
		t.Errorf("rec 2 = %+v", recs[2])
	}
}

func TestLogErrors(t *testing.T) {
	if _, err := NewLogReader(strings.NewReader("FSEV1\nxxxx")); !errors.Is(err, ErrBadLogMagic) {
		t.Errorf("wrong magic: got %v", err)
	}
	var trunc *TruncatedError
	if _, err := NewLogReader(strings.NewReader("FIN")); !errors.As(err, &trunc) {
		t.Errorf("short magic: got %v", err)
	}

	var buf bytes.Buffer
	lw, _ := NewLogWriter(&buf)
	_ = lw.Batch(1000, [][]byte{[]byte("{}")})
	_ = lw.End(2000)
	full := buf.Bytes()

	// Every proper prefix that cuts a record must fail typed, never panic.
	for n := len(LogMagic); n < len(full); n++ {
		_, err := readLog(bytes.NewReader(full[:n]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded as complete", n, len(full))
		}
		var ce *CorruptLogError
		if !errors.As(err, &trunc) && !errors.As(err, &ce) {
			t.Fatalf("prefix %d: untyped error %v", n, err)
		}
	}

	// Unknown op byte.
	bad := append(append([]byte{}, full[:len(LogMagic)]...), 0xEE)
	if _, err := readLog(bytes.NewReader(bad)); err == nil {
		t.Error("unknown op accepted")
	} else {
		var ce *CorruptLogError
		if !errors.As(err, &ce) {
			t.Errorf("unknown op: untyped error %v", err)
		}
	}

	// A log with no end record at all is truncated even on a clean
	// record boundary.
	var noEnd bytes.Buffer
	lw2, _ := NewLogWriter(&noEnd)
	_ = lw2.Batch(1000, nil)
	_ = lw2.Flush()
	if _, err := readLog(bytes.NewReader(noEnd.Bytes())); !errors.As(err, &trunc) {
		t.Errorf("missing end record: got %v", err)
	}

	// Reader returns io.EOF forever after the end record.
	lr, err := NewLogReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	for {
		rec, err := lr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec.End {
			break
		}
	}
	if _, err := lr.Next(); err != io.EOF {
		t.Errorf("after end: got %v, want io.EOF", err)
	}
}

// readLog decodes a complete ingress log, copying each record's
// envelopes out of the reader's reused buffer. It fails with
// *TruncatedError if the stream lacks an end record.
func readLog(r io.Reader) ([]LogRecord, error) {
	lr, err := NewLogReader(r)
	if err != nil {
		return nil, err
	}
	var recs []LogRecord
	for {
		rec, err := lr.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		if rec.Envelopes != nil {
			envs := make([][]byte, len(rec.Envelopes))
			for i, env := range rec.Envelopes {
				envs[i] = bytes.Clone(env)
			}
			rec.Envelopes = envs
		}
		recs = append(recs, rec)
	}
}
