package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/wire"
)

// The compat fixture is a FING1 ingress log whose envelopes use every
// unusual form the v1 envelope grammar admits (docs/API.md, "Envelope
// grammar"): case-folded and escaped keys, the Kelvin sign and long s,
// nested unknown values, repeated keys, nulls, boundary numbers,
// surrogates, invalid UTF-8, whitespace, trailing bytes and a top-level
// null. Its FSEV1 replay hash, envelope count and the parsed form of
// every envelope were recorded with the encoding/json decoder, so an old
// log must keep replaying to the same world under any later decoder.
const (
	compatFixture   = "testdata/compat-v1.fing"
	compatRequests  = "testdata/compat-v1.requests.jsonl"
	compatSeed      = 71
	compatStreamSHA = "5d73da3678c1b67d93a086f007c1bec8defd87462332c6a28f1c1290691c18b7"
	compatEnvelopes = 48
)

// writeCompat rewrites the fixture from compatScript. The pinned files
// are the record of the encoding/json decoder; rewriting them with a
// later decoder would prove nothing.
var writeCompat = flag.Bool("write-compat-fixture", false,
	"rewrite "+compatFixture+" and "+compatRequests+" from compatScript")

// compatLine is one golden line: the envelope's parse result, re-marshalled.
// Tags repeats Req.Tags without omitempty so nil and [] stay distinct.
type compatLine struct {
	Code wire.Code    `json:"code"`
	Req  wire.Request `json:"req"`
	Tags []string     `json:"tags"`
}

func TestReplayCompatFixture(t *testing.T) {
	if *writeCompat {
		writeCompatFixture(t)
	}
	log, err := os.ReadFile(compatFixture)
	if err != nil {
		t.Fatal(err)
	}

	// Every envelope parses exactly as it did when the fixture was made.
	lr, err := wire.NewLogReader(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for {
		rec, err := lr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, env := range rec.Envelopes {
			got.Write(compatParse(t, env))
		}
	}
	want, err := os.ReadFile(compatRequests)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("envelope %d parses differently:\n got: %s\nwant: %s", i, gl[i], wl[i])
			}
		}
		t.Fatalf("parsed %d lines, golden has %d", len(gl), len(wl))
	}

	// And the log replays to the same event stream.
	w := core.NewWorld(tinyConfig(compatSeed))
	var stream bytes.Buffer
	wr, err := eventio.NewWriter(&stream)
	if err != nil {
		t.Fatal(err)
	}
	wr.Attach(w.Plat.Log())
	applied, err := ReplayIngressLog(w, bytes.NewReader(log))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(stream.Bytes())
	if applied != compatEnvelopes {
		t.Errorf("replay applied %d envelopes, want %d", applied, compatEnvelopes)
	}
	if got := hex.EncodeToString(sum[:]); got != compatStreamSHA {
		t.Errorf("replayed FSEV1 sha256 = %s, want %s", got, compatStreamSHA)
	}
}

func compatParse(t *testing.T, env []byte) []byte {
	t.Helper()
	req, werr := wire.ParseRequest(env)
	line := compatLine{Req: req, Tags: req.Tags}
	if werr != nil {
		line.Code = werr.Code
	}
	out, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// writeCompatFixture drives compatScript against a live world, records
// each batch exactly as the serve loop does (inside the drain, before it
// applies), and writes the log and the parse golden. The hash and count
// it logs are pinned by hand in the constants above.
func writeCompatFixture(t *testing.T) {
	w := core.NewWorld(tinyConfig(compatSeed))
	var stream, logBuf, golden bytes.Buffer
	wr, err := eventio.NewWriter(&stream)
	if err != nil {
		t.Fatal(err)
	}
	wr.Attach(w.Plat.Log())
	lw, err := wire.NewLogWriter(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(w)
	start := w.Sched.Clock().Now()
	n := 0
	step := func(hours int, envs []string) []wire.Outcome {
		at := start.Add(time.Duration(hours) * time.Hour)
		raw := make([][]byte, len(envs))
		for i, env := range envs {
			raw[i] = []byte(env)
			golden.Write(compatParse(t, raw[i]))
		}
		var outs []wire.Outcome
		w.ServeTick(at, func() {
			if err := lw.Batch(at.UnixNano(), raw); err != nil {
				t.Fatal(err)
			}
			for _, env := range raw {
				outs = append(outs, exec.Apply(env))
			}
		})
		n += len(raw)
		return outs
	}
	end := compatScript(t, step)
	at := start.Add(time.Duration(end) * time.Hour)
	w.ServeTick(at, nil)
	if err := lw.End(at.UnixNano()); err != nil {
		t.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	for path, data := range map[string][]byte{compatFixture: logBuf.Bytes(), compatRequests: golden.Bytes()} {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %s: %d envelopes, FSEV1 sha256 %x", compatFixture, n, sha256.Sum256(stream.Bytes()))
}

// compatScript is the source of the fixture's envelopes. step applies one
// batch at start+hours and returns its outcomes; compatScript returns the
// hour of the end record.
func compatScript(t *testing.T, step func(hours int, envs []string) []wire.Outcome) int {
	var accounts []uint64
	for _, out := range step(1, []string{
		`{"v":1,"op":"register","username":"compat-a","password":"pw"}`,
		// Case-folded and \u-escaped keys.
		`{"V":1,"OP":"register","UserName":"compat-b","pa\u0073sword":"pw","country":"BRA"}`,
		// Long s (U+017F) folds to S: escaped, then raw UTF-8.
		`{"v":1,"op":"register","u\u017Fername":"compat-c","pa\u017F\u017Fword":"pw"}`,
		"{\"v\":1,\"op\":\"register\",\"u\u017Fername\":\"compat-d\",\"passwor\\u0064\":\"p\\u0077\"}",
		// Non-ASCII values and a nested unknown field.
		`{"v":1,"op":"register","username":"compat-\u00e9\ud83d\ude00","password":"pw","unknown":{"nested":[1,-2.5e+3,0.5E-1,true,false,null,{"deep":["x",[]]}],"e":{}}}`,
		// Repeated keys: the last wins; a null leaves the field as it was.
		`{"v":1,"op":"register","username":"dup-first","username":"compat-f","password":"pw","country":"CAN","country":null}`,
		// Rejected at parse: top-level null, fraction, exponent, trailing
		// bytes, -0 (v = 0) and int overflow.
		`null`,
		`{"v":1.0,"op":"register","username":"compat-x","password":"pw"}`,
		`{"v":1e0,"op":"register","username":"compat-x","password":"pw"}`,
		`{"v":1,"op":"register","username":"compat-g","password":"pw"} x`,
		`{"v":-0,"op":"register","username":"compat-h","password":"pw"}`,
		`{"v":9223372036854775808,"op":"register","username":"compat-h","password":"pw"}`,
	}) {
		if out.Status == wire.StatusAllowed {
			accounts = append(accounts, out.Account)
		}
	}
	if len(accounts) != 6 {
		t.Fatalf("registered %d compat accounts, want 6", len(accounts))
	}

	var tokens []string
	for _, out := range step(2, []string{
		`{"v":1,"op":"login","username":"compat-a","password":"pw","api":"private","client":"fixture-\u00E9"}`,
		" \t\r\n{ \"v\" : 1 , \"op\" : \"login\" , \"username\" : \"compat-b\" , \"password\" : \"pw\" , \"api\" : \"oauth\" } \n",
		`{"v":2,"v":1,"op":"like","op":"login","username":"x","username":"compat-c","password":"pw","asn":null,"client":"c\"q\\b\/s\b\f\n\r\t"}`,
		`{"v":1,"op":"login","username":"compat-d","password":"pw","asn":0,"api":null}`,
		`{"v":1,"op":"login","username":"compat-\u00e9\ud83d\ude00","password":"pw","client":"\ud800x\udc00\ud83d\ud83d\ude00"}`,
		"{\"v\":1,\"op\":\"login\",\"username\":\"compat-f\",\"password\":\"pw\",\"client\":\"bad-\xff\xfe-\xed\xa0\x80-\xc3\"}",
		`{"v":1,"op":"login","username":"compat-f","password":"pw","asn":4294967296}`,
		`{"v":1,"op":"login","username":"compat-f","password":"pw","asn":-1}`,
		`{"v":1,"op":"login","username":"compat-f","password":"pw","asn":64999}`,
		`{"v":1,"op":"login","username":"compat-a","password":"pw","api":"soap"}`,
	}) {
		if out.Token != "" {
			tokens = append(tokens, out.Token)
		}
	}
	if len(tokens) != 6 {
		t.Fatalf("logged in %d compat sessions, want 6", len(tokens))
	}
	tok := func(i int) string { return tokens[i%len(tokens)] }

	var posts []uint64
	for _, out := range step(3, []string{
		// Kelvin sign (U+212A) folds to K: escaped, then raw UTF-8.
		fmt.Sprintf(`{"v":1,"op":"post","to\u212Aen":%q,"tags":["l4l","caf\u00e9","\ud83d\ude00"]}`, tok(0)),
		fmt.Sprintf("{\"v\":1,\"op\":\"post\",\"to\u212Aen\":%q,\"tags\":[]}", tok(1)),
		// Repeated tags: elements are decoded into the earlier slice, so a
		// null element keeps what was there.
		fmt.Sprintf(`{"v":1,"op":"post","TOKEN":%q,"tags":["a","b"],"tags":[null,"c"]}`, tok(2)),
		fmt.Sprintf(`{"v":1,"op":"post","token":%q,"tags":["a","b","c"],"tags":["d"],"tags":[null,null,null]}`, tok(3)),
		fmt.Sprintf(`{"v":1,"op":"post","token":%q,"tags":["x"],"tags":null}`, tok(4)),
		fmt.Sprintf("{\"v\":1,\"op\":\"post\",\"token\":%q,\"tags\":[\"bad-\xff\",\"\\ud800\",\"\\uDBFF\\uDFFF\"]}", tok(5)),
		fmt.Sprintf(`{"v":1,"op":"post","token":%q,"tags":[null]}`, tok(0)),
		fmt.Sprintf(`{"v":1,"op":"post","token":%q,"tags":"l4l"}`, tok(1)),
		fmt.Sprintf(`{"v":1,"op":"post","token":%q,"tags":["a",1]}`, tok(2)),
	}) {
		if out.Post != 0 {
			posts = append(posts, out.Post)
		}
	}
	if len(posts) < 2 {
		t.Fatalf("created %d compat posts, want at least 2", len(posts))
	}
	post := func(i int) uint64 { return posts[i%len(posts)] }
	acct := func(i int) uint64 { return accounts[i%len(accounts)] }

	step(5, []string{
		fmt.Sprintf(`{"v":1,"id":18446744073709551615,"op":"like","token":%q,"post":%d}`, tok(1), post(0)),
		fmt.Sprintf(`{"v":1,"id":0,"op":"follow","token":%q,"target":%d}`, tok(0), acct(1)),
		fmt.Sprintf(`{"v":1,"op":"comment","token":%q,"post":%d,"text":"nice \"pic\"\n\t\\ \/ \u00e9 \ud83d\ude00","extra":{"a":[1,2.5e-3,{"b":null}],"c":true,"d":"\u0000"}}`, tok(2), post(1)),
		fmt.Sprintf(`{"v":1,"op":"unfollow","token":%q,"target":%d,"Target":%d}`, tok(3), acct(0), acct(2)),
		fmt.Sprintf(`{"v":1,"op":"follow","token":%q,"target":18446744073709551616}`, tok(4)),
		fmt.Sprintf(`{"v":1,"op":"like","token":%q,"post":1e0}`, tok(5)),
		fmt.Sprintf(`{"v":1,"op":"like","token":%q,"post":1.0}`, tok(0)),
		fmt.Sprintf(`{"v":1,"op":"follow","token":%q,"target":-1}`, tok(1)),
		fmt.Sprintf(`{"v":1,"op":"like","token":%q,"post":%d,"id":null}`, tok(2), post(0)),
		fmt.Sprintf(`{"v":1,"op":"comment","token":%q,"post":%d,"text":"x"}{}`, tok(3), post(0)),
		fmt.Sprintf(`{"v":1,"op":"follow","token":%q,"target":%d,}`, tok(4), acct(3)),
		fmt.Sprintf(`{"v":1,"op":"comment","token":%q,"post":%d,"text":"dup","TEXT":"last \u0041"}`, tok(5), post(1)),
		fmt.Sprintf(`{"v":1,"op":"Like","token":%q,"post":%d}`, tok(0), post(0)),
		fmt.Sprintf(`{"v":9223372036854775807,"op":"like","token":%q,"post":%d}`, tok(1), post(0)),
		fmt.Sprintf(`{"v":1,"op":"follow","token":%q,"target":%d,"asn":4294967295}`+"\r\n\t ", tok(2), acct(4)),
		fmt.Sprintf(`{"v":1,"op":"follow","token":%q,"target":%d,"post":"x"}`, tok(3), acct(5)),
		`{"v":1,"op":"like","token":"no-such-token","post":1}`,
	})
	return 8
}
