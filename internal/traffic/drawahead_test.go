package traffic

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// refDemand is the per-cycle demand process written out the plain way:
// one Bernoulli per chain step, the ramp, and Knuth's Poisson loop at a
// freshly computed exp(-rate). It shares no fast path with tickDemand
// (no memo, no thresholds, no steady forms), so it is the oracle the
// draw-ahead is checked against.
func refDemand(g *generator) int {
	if g.bursting {
		if g.rng.Bernoulli(g.profile.BurstExit) {
			g.bursting = false
		}
	} else if g.rng.Bernoulli(g.profile.BurstEntry) {
		g.bursting = true
	}
	switch {
	case g.profile.RampCycles == 0 && g.bursting:
		g.level = 1
	case g.profile.RampCycles == 0:
		g.level = 0
	case g.bursting:
		if g.level += g.rampStep; g.level > 1 {
			g.level = 1
		}
	case g.level > 0:
		if g.level -= 2 * g.rampStep; g.level < 0 {
			g.level = 0
		}
	}
	rate := g.profile.BaseRate + float64(g.level*g.rateSpan)
	if rate <= 0 {
		return 0
	}
	l := math.Exp(-rate)
	k, p := 0, 1.0
	for {
		p *= g.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// drawAheadProfiles are the 24 benchmarks plus three variants that reach
// the corners the real ones rarely do: instantaneous bursts
// (RampCycles 0), a quiet rate high enough that quiet cycles often draw
// k >= 2, and a generator sparse enough to run into the horizon.
func drawAheadProfiles() []Profile {
	dct, _ := ProfileByName("DCT")
	fmm, _ := ProfileByName("fmm")
	instant := dct
	instant.Name, instant.RampCycles = "DCT-instant", 0
	busy := dct
	busy.Name, busy.BaseRate, busy.BurstRate = "DCT-busy-quiet", 0.6, 1.5
	sparse := fmm
	sparse.Name, sparse.BaseRate, sparse.BurstEntry = "fmm-sparse", 0.0002, 0.0001
	return append(append(CPUProfiles(), GPUProfiles()...), instant, busy, sparse)
}

// drawAheadCoverage counts the situations the differential test must
// reach for its verdict to mean anything.
type drawAheadCoverage struct {
	horizonHits  int // a draw-ahead that ran the full horizon without demand
	quietEntries int // a burst entered inside a draw-ahead's quiet loop
	quietTails   int // a quiet cycle inside a draw-ahead that drew k >= 2
	resumes      int // cycles at which the twin resumed from a draw-ahead
}

// runDrawAheadTwin steps a generator with refDemand every cycle and its
// twin the way Workload.Tick drives it: skipped until its wake cycle,
// tickDemand while the network holds demand back, a draw-ahead whenever
// nothing is pending. Both must produce the same demand on every cycle
// and stand at the same stream position and chain state on every cycle
// the twin runs. Pending demand is simulated by a control stream: it
// spends one to three drain draws on both streams and keeps the twin
// awake for the next cycle.
func runDrawAheadTwin(t *testing.T, prof Profile, seed uint64, cycles, horizon int64, cov *drawAheadCoverage) {
	t.Helper()
	tab := newExpTable()
	var ref, twin generator
	ref.init(0, prof, sim.NewRNG(seed), tab)
	twin.init(0, prof, sim.NewRNG(seed), tab)
	ctl := sim.NewRNG(^seed)
	from, wake := int64(-1), int64(-1) // the twin's draw-ahead covers (from, wake]
	for c := int64(0); c < cycles; c++ {
		quietBefore := !ref.bursting && ref.level == 0
		want := refDemand(&ref)
		if c > from && c <= wake && quietBefore && twin.quiet.ok {
			if ref.bursting {
				cov.quietEntries++
			} else if want >= 2 {
				cov.quietTails++
			}
		}
		got := 0
		switch {
		case wake > c:
		case wake == c:
			got = twin.wakeDemand
			cov.resumes++
		default:
			got = twin.tickDemand()
		}
		if got != want {
			t.Fatalf("%s seed %d horizon %d cycle %d: twin demand %d, per-cycle demand %d (draw-ahead from %d to %d)",
				prof.Name, seed, horizon, c, got, want, from, wake)
		}
		if wake > c {
			continue
		}
		if twin.rng != ref.rng || twin.bursting != ref.bursting || twin.level != ref.level {
			t.Fatalf("%s seed %d horizon %d cycle %d: twin and per-cycle generator diverged (streams equal %v, bursting %v/%v, level %v/%v)",
				prof.Name, seed, horizon, c, twin.rng == ref.rng, twin.bursting, ref.bursting, twin.level, ref.level)
		}
		if ctl.Bernoulli(0.25) {
			for n := ctl.Intn(3) + 1; n > 0; n-- {
				ref.rng.Uint64()
				twin.rng.Uint64()
			}
			continue
		}
		from, wake = c, twin.drawAhead(c, horizon)
		if wake-from == horizon && twin.wakeDemand == 0 {
			cov.horizonHits++
		}
	}
}

// TestDrawAheadMatchesPerCycleDemand is the draw-ahead's differential
// test: every profile, three seeds, every cycle compared, at Tick's
// horizon and at short ones that put a horizon next to every kind of
// cycle.
func TestDrawAheadMatchesPerCycleDemand(t *testing.T) {
	var cov drawAheadCoverage
	for _, prof := range drawAheadProfiles() {
		if err := prof.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 2018, 0xdecafbad} {
			runDrawAheadTwin(t, prof, seed, 60000, drawAheadHorizon, &cov)
			for _, horizon := range []int64{1, 2, 7, 64} {
				runDrawAheadTwin(t, prof, seed, 10000, horizon, &cov)
			}
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.horizonHits == 0 || cov.quietEntries == 0 || cov.quietTails == 0 || cov.resumes == 0 {
		t.Fatalf("the test did not reach every case it exists for: %+v", cov)
	}
}
