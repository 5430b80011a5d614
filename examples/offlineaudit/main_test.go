package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// tempDir matches the capture's temporary directory, which differs from
// run to run.
var tempDir = regexp.MustCompile(`\S*footsteps-audit\d+`)

// TestStdoutGolden pins the example's stdout byte for byte, with the
// capture's temporary directory masked. After a deliberate change to
// it, regenerate the golden with
//
//	go run ./examples/offlineaudit | sed -E 's#[^ ]*footsteps-audit[0-9]+#$TMPDIR/footsteps-audit*#' > examples/offlineaudit/testdata/stdout.golden
func TestStdoutGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	got := tempDir.ReplaceAllLiteralString(out.String(), "$TMPDIR/footsteps-audit*")
	if got != string(want) {
		t.Errorf("stdout differs from testdata/stdout.golden:\n%s", got)
	}
}
