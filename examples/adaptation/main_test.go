package main

import (
	"bytes"
	"os"
	"testing"
)

// TestStdoutGolden pins the example's stdout byte for byte. After a
// deliberate change to it, regenerate the golden with
//
//	go run ./examples/adaptation > examples/adaptation/testdata/stdout.golden
func TestStdoutGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("stdout differs from testdata/stdout.golden:\n%s", out.String())
	}
}
