package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseRequest holds the parser's core promise: arbitrary bytes
// never panic, and every rejection carries a typed envelope-level code.
func FuzzParseRequest(f *testing.F) {
	f.Add([]byte(`{"v":1,"op":"register","username":"alice","password":"pw"}`))
	f.Add([]byte(`{"v":1,"op":"login","username":"alice","password":"pw","asn":64512,"api":"oauth"}`))
	f.Add([]byte(`{"v":1,"id":7,"op":"like","token":"tok","post":42}`))
	f.Add([]byte(`{"v":1,"op":"follow","token":"tok","target":9}`))
	f.Add([]byte(`{"v":1,"op":"unfollow","token":"tok","target":9}`))
	f.Add([]byte(`{"v":1,"op":"comment","token":"tok","post":42,"text":"nice"}`))
	f.Add([]byte(`{"v":1,"op":"post","token":"tok","tags":["l4l"]}`))
	f.Add([]byte(`{"v":2,"op":"like"}`))
	f.Add([]byte(`{"op":"like"}`))
	f.Add([]byte(`{"v":1,"op":"warp"}`))
	f.Add([]byte(`{{{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, werr := ParseRequest(data)
		if werr != nil {
			switch werr.Code {
			case CodeTooLarge, CodeMalformed, CodeBadVersion, CodeUnknownOp, CodeMissingField, CodeBadField:
			default:
				t.Fatalf("rejection carries non-envelope code %q", werr.Code)
			}
			return
		}
		// Accepted envelopes must survive a re-encode/re-parse cycle
		// unchanged: the schema has no lossy fields.
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-marshal: %v", err)
		}
		again, werr := ParseRequest(out)
		if werr != nil {
			t.Fatalf("re-encoded request rejected: %v", werr)
		}
		out2, _ := json.Marshal(again)
		if !bytes.Equal(out, out2) {
			t.Fatalf("re-encode unstable:\n %s\n %s", out, out2)
		}
	})
}

// parseRequestJSON is the reference decoder: ParseRequest as it was
// built on encoding/json. ParseRequest must agree with it on every input
// (same Request, same accept/reject code); only a malformed Detail may
// differ.
func parseRequestJSON(data []byte) (Request, *Error) {
	var req Request
	if len(data) > MaxEnvelopeBytes {
		return req, Errf(CodeTooLarge, "envelope is %d bytes (max %d)", len(data), MaxEnvelopeBytes)
	}
	if err := json.Unmarshal(data, &req); err != nil {
		return Request{}, Errf(CodeMalformed, "bad envelope: %v", err)
	}
	return req, req.Validate()
}

// FuzzParseRequestMatchesJSON is the differential check of the
// hand-written envelope decoder against encoding/json. The checked-in
// corpus covers each rule of the envelope grammar (docs/API.md).
func FuzzParseRequestMatchesJSON(f *testing.F) {
	f.Add([]byte(`{"v":1,"op":"comment","token":"t","post":5,"text":"x"}`))
	f.Fuzz(checkMatchesJSON)
}

// checkMatchesJSON fails t unless ParseRequest and the encoding/json
// reference agree on data.
func checkMatchesJSON(t *testing.T, data []byte) {
	t.Helper()
	got, gerr := ParseRequest(data)
	want, werr := parseRequestJSON(data)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Code != werr.Code {
		t.Fatalf("ParseRequest(%.200q) error = %v, encoding/json gives %v", data, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseRequest(%.200q) =\n %#v\nencoding/json gives\n %#v", data, got, want)
	}
}

// TestParseRequestNestingLimit checks encoding/json's nesting limit at
// its edge: an unknown value may nest to depth 10000, counting the
// envelope as 1, and no deeper. (Kept out of the fuzz corpus: inputs
// this large make the fuzzer's minimizer crawl.)
func TestParseRequestNestingLimit(t *testing.T) {
	for _, depth := range []int{9999, 10000, 10001} {
		arrays := `{"v":1,"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`
		objects := `{"v":1,"x":` + strings.Repeat(`{"a":`, depth-1) + `0` + strings.Repeat("}", depth-1) + `}`
		mixed := `{"v":1,"x":` + strings.Repeat(`[{"a":`, (depth-1)/2) + `0` + strings.Repeat("}]", (depth-1)/2) + `}`
		for _, env := range []string{arrays, objects, mixed} {
			checkMatchesJSON(t, []byte(env))
			_, werr := ParseRequest([]byte(env))
			if accepted := werr == nil || werr.Code != CodeMalformed; accepted != (depth <= 10000) {
				t.Errorf("depth %d: ParseRequest error %v", depth, werr)
			}
		}
	}
}

// FuzzLogReader holds the ingress-log decoder's promise: arbitrary
// bytes never panic and never allocate past the declared caps; every
// failure is ErrBadLogMagic, *TruncatedError, or *CorruptLogError.
func FuzzLogReader(f *testing.F) {
	seed := func(build func(lw *LogWriter)) []byte {
		var buf bytes.Buffer
		lw, _ := NewLogWriter(&buf)
		build(lw)
		_ = lw.Flush()
		return buf.Bytes()
	}
	f.Add(seed(func(lw *LogWriter) { _ = lw.End(0) }))
	f.Add(seed(func(lw *LogWriter) {
		_ = lw.Batch(1000, [][]byte{[]byte(`{"v":1,"op":"post","token":"t"}`)})
		_ = lw.End(2000)
	}))
	f.Add(seed(func(lw *LogWriter) {
		_ = lw.Batch(1, nil)
		_ = lw.Batch(2, [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")})
	}))
	f.Add([]byte("FING1\n"))
	f.Add([]byte("FING1\n\xEE"))
	f.Add([]byte("FSEV1\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		lr, err := NewLogReader(bytes.NewReader(data))
		if err != nil {
			checkLogErr(t, err)
			return
		}
		for {
			_, err := lr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				checkLogErr(t, err)
				return
			}
		}
	})
}

func checkLogErr(t *testing.T, err error) {
	t.Helper()
	var trunc *TruncatedError
	var corrupt *CorruptLogError
	if !errors.Is(err, ErrBadLogMagic) && !errors.As(err, &trunc) && !errors.As(err, &corrupt) {
		t.Fatalf("untyped decode error: %v", err)
	}
}

// FuzzAppendOutcomeJSONMatchesJSON is the differential check of the
// hand-written outcome encoder against json.Marshal. The checked-in
// corpus covers each escape rule: quotes and backslashes, the short
// control escapes, other control bytes, HTML-sensitive <, > and &,
// U+2028/U+2029 and invalid UTF-8.
func FuzzAppendOutcomeJSONMatchesJSON(f *testing.F) {
	f.Add(1, uint64(7), "allowed", "", "", true, uint64(3), uint64(0), "t0123456789abcdef")
	f.Fuzz(func(t *testing.T, v int, id uint64, status, code, detail string, applied bool, account, post uint64, token string) {
		o := Outcome{V: v, ID: id, Status: Status(status), Code: Code(code), Detail: detail,
			Applied: applied, Account: account, Post: post, Token: token}
		want, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendOutcomeJSON([]byte("x"), o); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("AppendOutcomeJSON(%#v) =\n %s\njson.Marshal gives\n %s", o, got[1:], want)
		}
	})
}

// FuzzAppendEventJSONMatchesJSON is the same differential check for the
// WS event encoder, whose client string comes from wire logins.
func FuzzAppendEventJSONMatchesJSON(f *testing.F) {
	f.Add(uint64(1), int64(1504224000000000500), "follow", uint64(3), uint64(9), uint64(0),
		"203.0.113.7", uint32(64512), "android-7.1", "private", "allowed", false, false)
	f.Fuzz(func(t *testing.T, seq uint64, tn int64, action string, actor, target, post uint64,
		ip string, asn uint32, client, api, outcome string, enforcement, duplicate bool) {
		ev := Event{Seq: seq, TimeNanos: tn, Action: action, Actor: actor, Target: target, Post: post,
			IP: ip, ASN: asn, Client: client, API: api, Outcome: Status(outcome),
			Enforcement: enforcement, Duplicate: duplicate}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendEventJSON([]byte("x"), ev); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("AppendEventJSON(%#v) =\n %s\njson.Marshal gives\n %s", ev, got[1:], want)
		}
	})
}
