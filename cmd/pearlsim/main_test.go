package main

import (
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
