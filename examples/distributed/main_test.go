package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example as shipped, n = 200 attacked to exhaustion:
// every checkpoint must match the sequential reference.
func TestRun(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"round 200: alive=  0", "matched the sequential reference at every checkpoint"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}
