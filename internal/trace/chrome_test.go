package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
)

// exportChromeFmt is the fmt-based exporter ExportChrome replaced, kept
// as the reference its output must equal byte for byte.
func exportChromeFmt(w io.Writer, r *Reader) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(name string, pid, tid int, tsNs, durNs int64, args string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"cat":"footsteps"`,
			name, pid, tid, float64(tsNs)/1e3, float64(durNs)/1e3)
		if args != "" {
			bw.WriteString(`,"args":{`)
			bw.WriteString(args)
			bw.WriteByte('}')
		}
		bw.WriteByte('}')
	}
	for {
		sp, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		pid := chromePID(sp.Kind)
		tid := int(sp.Shard)
		dur := sp.Wall
		if dur <= 0 {
			dur = 1
		}
		var name string
		switch sp.Kind {
		case KindRequest, KindLogin:
			name = fmt.Sprintf("%s %s→%s", sp.Kind, ActionName(sp.Action), OutcomeName(sp.Code))
		case KindSection:
			name = "tick section"
		case KindPlan:
			name = "plan"
		default:
			name = fmt.Sprintf("%s %s", sp.Kind, VerdictName(sp.Code))
		}
		args := fmt.Sprintf(`"tick":%d,"seq":%d,"id":%d,"actor":%d,"value":%d`,
			sp.Tick, sp.Seq, sp.ID(), sp.Actor, sp.Value)
		if sp.Parent != 0 {
			args += fmt.Sprintf(`,"parent":%d`, sp.Parent)
		}
		emit(name, pid, tid, sp.Start, dur, args)
		ts := sp.Start
		for _, st := range sp.Stages {
			sd := st.Ns
			if sd <= 0 {
				sd = 1
			}
			emit(st.Stage.String(), pid, tid, ts, sd,
				fmt.Sprintf(`"verdict":%q`, VerdictName(st.Verdict)))
			ts += st.Ns
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// TestExportChromeMatchesFmt renders spans of every kind, with codes
// past the named ones, extreme and negative timings, parents and
// shards, through ExportChrome and the fmt reference, and requires the
// same bytes. An empty trace is compared too.
func TestExportChromeMatchesFmt(t *testing.T) {
	var spans []Span
	for k := KindRequest; k <= KindEnforcement+1; k++ {
		for code := uint8(0); code < 8; code++ {
			sp := Span{
				Tick: epochNanos + int64(code)*1e9 + int64(k), Shard: uint32(code % 3), Seq: uint32(k)*8 + uint32(code),
				Kind: k, Action: code, Code: code,
				Actor: uint64(code) << 40, Value: int64(code)*1_000_003 - 4,
				Start: int64(k)*12_345_678 + int64(code), Wall: int64(code)*999 - 2,
			}
			if code%2 == 1 {
				sp.Parent = SpanID(sp.Tick, sp.Seq+1)
			}
			if k == KindRequest || k == KindLogin {
				for st := StagePreflight; st <= StagePlan+1; st++ {
					sp.Stages = append(sp.Stages, StageRec{Stage: st, Verdict: uint8(st) % 5, Ns: int64(st)*1501 - 3})
				}
			}
			spans = append(spans, sp)
		}
	}
	spans = append(spans,
		Span{Kind: KindRequest, Tick: -1, Start: -1_000_000_007, Wall: 1<<62 + 1, Value: -1 << 63, Actor: 1<<64 - 1},
		Span{Kind: KindPlan, Start: 1<<63 - 1, Wall: 1})

	for _, n := range []int{0, len(spans)} {
		var enc bytes.Buffer
		w, err := NewWriter(&enc, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range spans[:n] {
			if err := w.WriteSpan(&spans[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		export := func(f func(io.Writer, *Reader) error) []byte {
			r, err := NewReader(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := f(&out, r); err != nil {
				t.Fatal(err)
			}
			return out.Bytes()
		}
		got, want := export(ExportChrome), export(exportChromeFmt)
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%d spans: export differs from the fmt reference at byte %d:\ngot  …%s\nwant …%s",
				n, i, got[i:min(len(got), i+120)], want[i:min(len(want), i+120)])
		}
	}
}

// TestAppendMicrosMatchesFmt compares appendMicros with %.3f of
// float64(ns)/1e3 across every magnitude, both signs and the edges of
// its integer path.
func TestAppendMicrosMatchesFmt(t *testing.T) {
	ns := []int64{0, 1, -1, 999, -999, 1000, -1000, 1001, 1<<52 - 1, 1 << 52, -(1<<52 - 1), -(1 << 52), math.MaxInt64, math.MinInt64}
	r := rand.New(rand.NewSource(1))
	for shift := 0; shift < 63; shift++ {
		for i := 0; i < 200; i++ {
			v := r.Int63() >> shift
			ns = append(ns, v, -v)
		}
	}
	var b []byte
	for _, v := range ns {
		b = appendMicros(b[:0], v)
		if want := fmt.Sprintf("%.3f", float64(v)/1e3); string(b) != want {
			t.Fatalf("appendMicros(%d) = %s, %%.3f prints %s", v, b, want)
		}
	}
}
