package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// helperEnv switches the test binary into the command itself, for tests
// that need a process of their own: one a signal ends.
const helperEnv = "FOOTSTEPS_TEST_RUN_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// runCLI runs the command in-process and returns its exit code, stdout
// and stderr.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := runCLI(args...)
	if code != 0 {
		t.Fatalf("footsteps %s: exit %d\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, stdout, stderr)
	}
	return stdout
}

// TestUsageGolden pins the usage text -h prints. After a deliberate
// change to the commands or flags, regenerate it with
//
//	go run ./cmd/footsteps -h 2> cmd/footsteps/testdata/usage.golden
func TestUsageGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "usage.golden"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI("-h")
	if code != 0 || stdout != "" {
		t.Fatalf("-h: exit %d, stdout %q", code, stdout)
	}
	if stderr != string(want) {
		t.Errorf("-h usage text differs from testdata/usage.golden:\n%s", stderr)
	}
}

// TestQuickStdoutGolden pins the stdout of six -quick study commands,
// byte for byte. After a deliberate change to a study's output,
// regenerate one with
//
//	go run ./cmd/footsteps -quick business > cmd/footsteps/testdata/quick_business.golden
func TestQuickStdoutGolden(t *testing.T) {
	for _, cmd := range []string{"catalog", "business", "narrow", "broad", "adaptation", "graphdetect"} {
		t.Run(cmd, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "quick_"+cmd+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := runCLI("-quick", cmd)
			if code != 0 || stderr != "" {
				t.Fatalf("-quick %s: exit %d, stderr %q", cmd, code, stderr)
			}
			if stdout != string(want) {
				t.Errorf("-quick %s stdout differs from testdata/quick_%s.golden:\n%s", cmd, cmd, stdout)
			}
		})
	}
}

// TestCheckPasses runs the calibration check in-process: every band
// must hold.
func TestCheckPasses(t *testing.T) {
	out := mustRun(t, "check")
	if !strings.HasSuffix(out, "\nAll calibration checks pass.\n") {
		t.Errorf("check did not end with the pass line:\n%s", out)
	}
}

// TestExitCodes pins each command line's exit code, and the usage text
// on stderr wherever the command line itself is at fault.
func TestExitCodes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "usage.golden"))
	if err != nil {
		t.Fatal(err)
	}
	usage := string(golden)
	const traceUsage = "usage: footsteps trace [-stats] [-grep spec] [-export chrome] [-o file] <trace.ftrc>\n"
	dir := t.TempDir()
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // a prefix, or the whole text when it is usage
	}{
		{[]string{"-h"}, 0, usage},
		{[]string{"trace", "-h"}, 0, traceUsage},
		{nil, 2, usage},
		{[]string{"bogus"}, 2, "unknown command \"bogus\"\n\n" + usage},
		{[]string{"-nope", "business"}, 2, "flag provided but not defined: -nope\n" + usage},
		{[]string{"trace"}, 2, traceUsage},
		{[]string{"run"}, 1, "footsteps: run needs -durable DIR for the segment log\n"},
		{[]string{"-trace", filepath.Join(dir, "t.ftrc"), "-trace-sample", "zz", "business"}, 1, "footsteps: bad -trace-sample \"zz\""},
		{[]string{"-faults", filepath.Join(dir, "no-such-scenario"), "business"}, 1, "footsteps: faults: load profile:"},
		{[]string{"trace", filepath.Join(dir, "missing.ftrc")}, 1, "footsteps: open "},
	} {
		code, stdout, stderr := runCLI(tc.args...)
		if code != tc.code {
			t.Errorf("footsteps %q: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr)
		}
		if stdout != "" {
			t.Errorf("footsteps %q: stdout %q, want none", tc.args, stdout)
		}
		if !strings.HasPrefix(stderr, tc.stderr) {
			t.Errorf("footsteps %q: stderr %q, want it to start with %q", tc.args, stderr, tc.stderr)
		}
		if tc.stderr == usage && stderr != usage {
			t.Errorf("footsteps %q: stderr is not exactly the usage text:\n%s", tc.args, stderr)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "t.ftrc")); !os.IsNotExist(err) {
		t.Errorf("a bad -trace-sample still created the trace file (stat: %v)", err)
	}
}

var streamLine = regexp.MustCompile(`(?m)^Stream: (\d+) events, sha256 ([0-9a-f]{64})$`)

// TestRecordReplayRoundTrip records a checkpointed, traced run, replays
// it from a mid-run checkpoint and from genesis against the capture,
// and inspects the trace three ways.
func TestRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fsev := filepath.Join(dir, "run.fsev")
	ftrc := filepath.Join(dir, "run.ftrc")
	ckpt := filepath.Join(dir, "ckpt")
	chrome := filepath.Join(dir, "run-trace.json")

	out := mustRun(t, "-quick", "-seed", "7", "-record", fsev, "-trace", ftrc,
		"-checkpoint-dir", ckpt, "-checkpoint-every", "10", "record")
	m := streamLine.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("record printed no Stream line:\n%s", out)
	}
	wantLines := []string{
		"FSEV1 capture written to " + fsev + "\n",
		"spans written to " + ftrc + " (sample 1/1)\n",
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want) {
			t.Errorf("record output lacks %q:\n%s", want, out)
		}
	}

	out = mustRun(t, "-quick", "-seed", "7", "-from", filepath.Join(ckpt, "checkpoint-day-020.fsnap"),
		"-against", fsev, "replay")
	if !strings.Contains(out, "Restored "+filepath.Join(ckpt, "checkpoint-day-020.fsnap")+": day 20 of 30") ||
		!strings.Contains(out, "Replay matches "+fsev+" byte-for-byte.\n") {
		t.Errorf("checkpoint replay:\n%s", out)
	}

	out = mustRun(t, "-quick", "-seed", "7", "-against", fsev, "replay")
	if want := "Replayed 30 days: " + m[1] + " events, stream sha256 " + m[2] + "\n"; !strings.Contains(out, want) {
		t.Errorf("genesis replay lacks %q:\n%s", want, out)
	}
	if !strings.Contains(out, "Replay matches "+fsev+" byte-for-byte.\n") {
		t.Errorf("genesis replay:\n%s", out)
	}

	out = mustRun(t, "trace", "-stats", ftrc)
	if !strings.HasPrefix(out, "Trace: ") || !strings.Contains(out, " spans (seed 7, sample 1/1)\n") {
		t.Errorf("trace -stats:\n%s", out)
	}

	out = mustRun(t, "trace", "-grep", "action=follow,outcome=allowed", "-n", "5", ftrc)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 6 || !strings.HasPrefix(lines[5], "5 of ") {
		t.Fatalf("trace -grep -n 5: want 5 spans and a tally:\n%s", out)
	}
	for _, l := range lines[:5] {
		if !strings.Contains(l, " action=follow outcome=allowed ") {
			t.Errorf("trace -grep printed a span outside the filter: %s", l)
		}
	}

	out = mustRun(t, "trace", "-export", "chrome", "-o", chrome, ftrc)
	if want := "spans written to " + chrome + "\n"; !strings.HasPrefix(out, "Chrome trace: ") || !strings.HasSuffix(out, want) {
		t.Errorf("trace -export chrome: %q", out)
	}
	// internal/trace's tests check the export's JSON; here the file must
	// hold one whole traceEvents object.
	f, err := os.Open(chrome)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	head, tail := make([]byte, 16), make([]byte, 3)
	if _, err := f.ReadAt(head, 0); err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(tail, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	if string(head) != `{"traceEvents":[` || string(tail) != "]}\n" {
		t.Errorf("%s holds %q … %q, want a traceEvents object", chrome, head, tail)
	}
}
