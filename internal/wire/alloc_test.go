package wire

import (
	"bytes"
	"testing"
)

// TestAllocBudgetParseRequest pins the envelope decoder's allocations
// per op: none for the Request or its op, one per non-empty string field
// (escaped or not) and one for a non-empty tags slice. A failure names
// the case; raise a budget only with a profile showing why (see
// docs/PERFORMANCE.md).
func TestAllocBudgetParseRequest(t *testing.T) {
	cases := []struct {
		op     string
		env    string
		budget float64
	}{
		{"register", `{"v":1,"id":1,"op":"register","username":"alice","password":"pw","country":"BRA"}`, 3},
		{"login", `{"v":1,"op":"login","username":"alice","password":"pw","asn":64512,"api":"oauth","client":"android-7.1"}`, 4},
		{"like", `{"v":1,"id":2,"op":"like","token":"t0123456789abcdef","post":99}`, 1},
		{"follow", `{"v":1,"op":"follow","token":"t0123456789abcdef","target":42}`, 1},
		{"unfollow", `{"v":1,"op":"unfollow","token":"t0123456789abcdef","target":42}`, 1},
		{"comment", `{"v":1,"op":"comment","token":"t0123456789abcdef","post":99,"text":"caf\u00e9 \"pic\" \ud83d\ude00"}`, 2},
		{"post", `{"v":1,"op":"post","token":"t0123456789abcdef","tags":["l4l","follow4follow"]}`, 4},
	}
	for _, tc := range cases {
		data := []byte(tc.env)
		if req, werr := ParseRequest(data); werr != nil || string(req.Op) != tc.op {
			t.Fatalf("%s: ParseRequest = %+v, %v", tc.op, req, werr)
		}
		got := testing.AllocsPerRun(100, func() { _, _ = ParseRequest(data) })
		if got > tc.budget {
			t.Errorf("ParseRequest(%s): %.1f allocs/op, budget %.0f", tc.op, got, tc.budget)
		}
	}
}

// TestAllocBudgetLogReaderNext pins LogReader.Next at zero allocations
// per batch once its buffers have grown to the batch size.
func TestAllocBudgetLogReaderNext(t *testing.T) {
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]byte{
		[]byte(`{"v":1,"op":"follow","token":"t0123456789abcdef","target":42}`),
		[]byte(`{"v":1,"op":"like","token":"t0123456789abcdef","post":99}`),
	}
	for i := 0; i < 200; i++ {
		if err := lw.Batch(int64(i), batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.End(200); err != nil {
		t.Fatal(err)
	}
	lr, err := NewLogReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	next := func() {
		rec, err := lr.Next()
		if err != nil || len(rec.Envelopes) != 2 || !bytes.Equal(rec.Envelopes[1], batch[1]) {
			t.Fatalf("Next = %+v, %v", rec, err)
		}
	}
	next() // grow the buffers
	if got := testing.AllocsPerRun(100, next); got > 0 {
		t.Errorf("LogReader.Next: %.1f allocs/batch, budget 0", got)
	}
}

// TestAllocBudgetAppendOutcomeJSON pins the outcome encoder at zero
// allocations into a buffer with room, escapes included.
func TestAllocBudgetAppendOutcomeJSON(t *testing.T) {
	outs := []Outcome{
		{V: Version, ID: 9, Status: StatusAllowed, Applied: true, Token: "t0123456789abcdef"},
		{V: Version, ID: 10, Status: StatusError, Code: CodeUnknownOp, Detail: "op \"<warp>&\"\x01\xe2\x80\xa8\xff"},
	}
	buf := make([]byte, 0, 256)
	for _, o := range outs {
		if got := testing.AllocsPerRun(100, func() { buf = AppendOutcomeJSON(buf[:0], o) }); got > 0 {
			t.Errorf("AppendOutcomeJSON(%+v): %.1f allocs, budget 0", o, got)
		}
	}
}
