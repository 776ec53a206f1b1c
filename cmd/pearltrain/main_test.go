package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/models"
)

// goldenQuickModelHash is the content hash of the RW500 model trained at
// Quick scale with seed 2018, the same value internal/experiments pins
// for Train(500, Quick()). The benchmark's ML digests were made with it.
const goldenQuickModelHash = "d0950cc0db21cc6db744a479d2991081a37e7dfa75066593c521fe1e3d80560f"

// TestQuickArtifact runs the command as a user would for a smoke model
// and checks that the artifact it writes loads and carries the pinned
// hash, and that the report names it.
func TestQuickArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rw500.json")
	var stdout bytes.Buffer
	if code := run([]string{"-quick", "-out", path}, &stdout); code != 0 {
		t.Fatalf("exit status %d; output:\n%s", code, stdout.String())
	}
	a, err := models.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != goldenQuickModelHash {
		t.Fatalf("artifact hash %s, pinned %s", a.Hash, goldenQuickModelHash)
	}
	if want := "model artifact written to " + path + " (hash " + goldenQuickModelHash + ")"; !strings.Contains(stdout.String(), want) {
		t.Fatalf("report lacks %q:\n%s", want, stdout.String())
	}
}

func TestBadFlag(t *testing.T) {
	var stdout bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout); code != 2 {
		t.Fatalf("exit status %d for an unknown flag, want 2", code)
	}
}
