package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"footsteps/internal/durable"
)

// TestCrashRecoverRoundTrip is the crash/recover round trip over the
// real command. A durable run's reconstructed stream must hash the same
// as a plain record of the same config. A run killed at filesystem op
// 300, in a process of its own, must exit 137; -resume must then
// recover it to that same stream, and every frame checksum of the
// recovered log must verify.
func TestCrashRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clean, crashed := filepath.Join(dir, "dur-clean"), filepath.Join(dir, "dur-crash")
	quick := []string{"-quick", "-seed", "7"}
	stream := func(label, out string) string {
		t.Helper()
		m := streamLine.FindString(out)
		if m == "" {
			t.Fatalf("%s printed no Stream line:\n%s", label, out)
		}
		return m
	}

	want := stream("record", mustRun(t, append(quick, "record")...))
	if got := stream("durable run", mustRun(t, append(quick, "-durable", clean, "run")...)); got != want {
		t.Errorf("durable run: %q, want the record's %q", got, want)
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append(quick, "-durable", crashed, "-crash-after-op", "300", "run")...)
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 137 || !strings.Contains(string(out), "crash injected at filesystem op 300") {
		t.Fatalf("crash-injected run: %v, want exit 137\n%s", err, out)
	}

	if got := stream("resumed run", mustRun(t, append(quick, "-durable", crashed, "-resume", "run")...)); got != want {
		t.Errorf("resumed run: %q, want the record's %q", got, want)
	}
	infos, err := durable.VerifyDir(durable.OSFS{}, crashed)
	if err != nil {
		t.Fatalf("verify %s: %v", crashed, err)
	}
	events := strings.Fields(want)[1]
	if len(infos) == 0 || strconv.FormatUint(infos[len(infos)-1].Events, 10) != events {
		t.Errorf("verified segments %+v, want them to end at the stream's %s events", infos, events)
	}
}
