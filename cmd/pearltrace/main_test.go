package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSubcommands records a short trace and runs every subcommand on it
// as a user would, replaying into a photonic preset and the electrical
// baseline.
func TestSubcommands(t *testing.T) {
	dir := t.TempDir()
	trc := filepath.Join(dir, "t.trc")
	runOK := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("pearltrace %s: exit status %d\nstderr:\n%s", strings.Join(args, " "), code, stderr.String())
		}
		return stdout.String()
	}

	out := runOK("record", "-cycles", "3000", "-out", trc)
	var recorded int
	if _, err := fmt.Sscanf(out, "recorded %d injections", &recorded); err != nil || recorded == 0 {
		t.Fatalf("record reported %q", out)
	}

	if out := runOK("info", "-in", trc); !strings.Contains(out, fmt.Sprintf("records:   %d ", recorded)) {
		t.Fatalf("info does not count the %d recorded injections:\n%s", recorded, out)
	}

	js := filepath.Join(dir, "t.json")
	runOK("export", "-in", trc, "-out", js)
	raw, err := os.ReadFile(js)
	if err != nil {
		t.Fatal(err)
	}
	var exported []json.RawMessage
	if err := json.Unmarshal(raw, &exported); err != nil || len(exported) != recorded {
		t.Fatalf("export wrote %d records (%v), want %d", len(exported), err, recorded)
	}

	if out := runOK("calibrate", "-in", trc); !strings.Contains(out, "profile fit:") {
		t.Fatalf("calibrate fitted no profile:\n%s", out)
	}

	for _, cfg := range []string{"static-16", "cmesh"} {
		out := runOK("replay", "-in", trc, "-config", cfg, "-drain", "2000")
		var injected, total int
		var into string
		if _, err := fmt.Sscanf(out, "replayed %d of %d packets into %s", &injected, &total, &into); err != nil ||
			injected == 0 || injected > total || total != recorded || into != cfg {
			t.Fatalf("replay into %s of %d recorded injections reported:\n%s", cfg, recorded, out)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"replay", "-in", trc, "-config", "ml-rw500"}, &stdout, &stderr); code != 1 {
		t.Fatalf("replay into an ML preset: exit status %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "needs a trained model") {
		t.Fatalf("replay into an ML preset: stderr %q lacks the missing-model error", stderr.String())
	}
}

// TestWriteFailure sends record and export to a device that refuses
// every write: each must fail with exit status 1 and report nothing
// written.
func TestWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	trc := filepath.Join(t.TempDir(), "t.trc")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"record", "-cycles", "500", "-out", trc}, &stdout, &stderr); code != 0 {
		t.Fatalf("record: exit status %d\nstderr:\n%s", code, stderr.String())
	}
	for _, tc := range []struct {
		args []string
		line string
	}{
		{[]string{"record", "-cycles", "500", "-out", "/dev/full"}, "recorded"},
		{[]string{"export", "-in", trc, "-out", "/dev/full"}, "exported"},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("pearltrace %v: exit status %d, want 1", tc.args, code)
		}
		if strings.Contains(stdout.String(), tc.line) {
			t.Errorf("pearltrace %v reported a write that failed: %q", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "pearltrace:") {
			t.Errorf("pearltrace %v: stderr %q lacks the error", tc.args, stderr.String())
		}
	}
}

func TestUsageExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 2},
		{[]string{"-h"}, 0},
		{[]string{"record", "-h"}, 0},
		{[]string{"no-such-command"}, 2},
		{[]string{"info", "-no-such-flag"}, 2},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.want {
			t.Errorf("pearltrace %v: exit status %d, want %d", tc.args, code, tc.want)
		}
	}
}
