package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/traffic"
)

// TestTimelineMatchesPlainRun pins -timeline to the same simulation as
// the plain run: it used to hand-wire a stack with no policy installed
// and the raw seed, so a dynamic configuration sat at 64WL throughout
// and reported a different throughput.
func TestTimelineMatchesPlainRun(t *testing.T) {
	cfg, err := config.ByName("proteus-rw500")
	if err != nil {
		t.Fatal(err)
	}
	pair := traffic.TestPairs()[0]
	opts := experiments.Quick()
	opts.WarmupCycles = 2000
	opts.MeasureCycles = 20000

	plain, tl, err := runPEARL(cfg, pair, opts, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if tl != nil {
		t.Fatal("timeline captured without -timeline")
	}
	timed, tl, err := runPEARL(cfg, pair, opts, nil, true)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := timed.Metrics.ThroughputBitsPerCycle(), plain.Metrics.ThroughputBitsPerCycle(); got != want {
		t.Errorf("throughput with -timeline %v, without %v", got, want)
	}
	keys := plain.Metrics.StateResidency.Keys()
	if len(keys) < 2 {
		t.Fatalf("proteus-rw500 visited only states %v; the policy did not run", keys)
	}
	for _, wl := range keys {
		if got, want := timed.Metrics.StateResidency.Fraction(wl), plain.Metrics.StateResidency.Fraction(wl); got != want {
			t.Errorf("%dWL residency with -timeline %v, without %v", wl, got, want)
		}
	}

	if want := int(opts.MeasureCycles) / cfg.ReservationWindow; tl.wavelengths.Len() != want || tl.throughput.Len() != want {
		t.Errorf("timeline has %d/%d windows, want %d", tl.wavelengths.Len(), tl.throughput.Len(), want)
	}
	if tl.wavelengths.Min() == tl.wavelengths.Max() {
		t.Errorf("timeline of a dynamic policy is flat at %v wavelengths", tl.wavelengths.Max())
	}
}

// TestExitStatus pins what run returns before any long simulation: help
// is a success, a flag or run length it cannot use is a usage error (2),
// and a configuration that does not exist is a failure (1).
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-h"}, 0, "-cycles"},
		{[]string{"-no-such-flag"}, 2, "no-such-flag"},
		{[]string{"-config", "static-16", "-cycles", "-5"}, 2, "-cycles must be at least 1, got -5"},
		{[]string{"-config", "static-16", "-cycles", "0"}, 2, "-cycles must be at least 1, got 0"},
		{[]string{"-config", "static-16", "-warmup", "-1"}, 2, "-warmup must not be negative, got -1"},
		{[]string{"-config", "no-such-config", "-cycles", "100"}, 1, `pearlsim: unknown configuration "no-such-config"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%q: exit status %d, stderr %q; want %d and %q", tc.args, code, stderr.String(), tc.code, tc.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed a report:\n%s", tc.args, stdout.String())
		}
	}
}
