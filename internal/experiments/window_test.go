package experiments

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// collectWindows runs the PEARL path with an OnWindow hook and returns
// the sample sequence alongside the final result.
func collectWindows(t *testing.T, opts Options) ([]WindowStats, Result) {
	t.Helper()
	var wins []WindowStats
	opts.OnWindow = func(ws WindowStats) { wins = append(wins, ws) }
	res, err := runPEARL(config.PEARLDyn(), traffic.TestPairs()[0], opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return wins, res
}

// TestWindowSamplesTileTheMeasurement: the per-window deltas must
// partition the measured run exactly — indices are contiguous from 0,
// the windows tile MeasureCycles (with one trailing partial window when
// it is not a multiple of the reservation window), and the summed
// deliveries equal the final result's cumulative counters.
func TestWindowSamplesTileTheMeasurement(t *testing.T) {
	opts := tiny()
	opts.MeasureCycles = 5750 // not a multiple of the 500-cycle window: forces a partial tail
	wins, res := collectWindows(t, opts)

	rw := int64(config.PEARLDyn().ReservationWindow)
	wantWindows := int(opts.MeasureCycles / rw)
	if opts.MeasureCycles%rw != 0 {
		wantWindows++
	}
	if len(wins) != wantWindows {
		t.Fatalf("%d windows over %d cycles (RW %d), want %d", len(wins), opts.MeasureCycles, rw, wantWindows)
	}

	var cycles int64
	var packets, bits float64
	for i, ws := range wins {
		if ws.Window != i {
			t.Fatalf("window %d carries index %d; indices must be contiguous from 0", i, ws.Window)
		}
		want := rw
		if i == len(wins)-1 {
			want = opts.MeasureCycles - rw*int64(len(wins)-1)
		}
		if ws.Cycles != want {
			t.Fatalf("window %d spans %d cycles, want %d", i, ws.Cycles, want)
		}
		if ws.LatencyP99Cycles < ws.LatencyP50Cycles {
			t.Fatalf("window %d percentiles inverted: p50 %v > p99 %v", i, ws.LatencyP50Cycles, ws.LatencyP99Cycles)
		}
		if ws.WavelengthsOn <= 0 || ws.PowerW <= 0 {
			t.Fatalf("window %d photonic state: %+v", i, ws)
		}
		cycles += ws.Cycles
		packets += float64(ws.DeliveredPackets)
		bits += ws.ThroughputBitsPerCycle * float64(ws.Cycles)
	}
	if cycles != opts.MeasureCycles {
		t.Fatalf("windows tile %d cycles, want %d", cycles, opts.MeasureCycles)
	}
	if got := float64(res.Metrics.Delivered.TotalPackets()); packets != got {
		t.Fatalf("window deliveries sum to %v, final result counts %v", packets, got)
	}
	if got := res.ThroughputBitsPerCycle() * float64(opts.MeasureCycles); math.Abs(bits-got) > 1e-6*got {
		t.Fatalf("window throughput integrates to %v bits, final result says %v", bits, got)
	}
}

// TestOnWindowIsPureObservation is the no-observer-effect guarantee
// the golden results and the benchmark's digests rest on: running with a
// hook yields the exact Result a hookless run produces, and two hooked
// runs emit identical sample sequences.
func TestOnWindowIsPureObservation(t *testing.T) {
	opts := tiny()
	bare, err := runPEARL(config.PEARLDyn(), traffic.TestPairs()[0], opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	wins1, hooked := collectWindows(t, opts)
	if !reflect.DeepEqual(bare.Metrics, hooked.Metrics) || bare.Retired != hooked.Retired {
		t.Fatal("OnWindow hook perturbed the simulation result")
	}
	wins2, _ := collectWindows(t, opts)
	if !reflect.DeepEqual(wins1, wins2) {
		t.Fatal("window sample sequence is not deterministic for a fixed seed")
	}
}

// fixedSource is a windowSource with nothing delivered or in flight:
// the sampler's percentiles depend only on the deliveries it is handed.
type fixedSource struct{ m *stats.Network }

func (f fixedSource) Metrics() *stats.Network { return f.m }
func (f fixedSource) InFlight() int           { return 0 }
func (f fixedSource) WavelengthsOn() float64  { return 0 }

// TestWindowPercentilesPerWindow: the sampler reports each window's
// p50/p99 over exactly that window's deliveries — its one histogram,
// reset at every boundary, answers like a fresh one per window, however
// the windows' sizes and ranges (past the dense limit included) vary.
func TestWindowPercentilesPerWindow(t *testing.T) {
	const period, windows = 100, 60
	var got []WindowStats
	s := newWindowSampler(func(ws WindowStats) { got = append(got, ws) },
		fixedSource{stats.NewNetwork()}, nil, period, 0)
	deliver := s.wrapDeliver(func(*noc.Packet, int64) {})
	rng := rand.New(rand.NewSource(7))
	want := make([]stats.CycleHistogram, windows)
	s.start(0)
	for cycle := int64(0); cycle < period*windows; cycle++ {
		w := cycle / period
		spread := int64(1) << (2 + w%14) // 4 .. 32768 cycles
		for k := rng.Intn(4 + int(w%5)*3); k > 0; k-- {
			lat := rng.Int63n(spread)
			deliver(&noc.Packet{InjectCycle: cycle - lat}, cycle)
			want[w].Add(lat)
		}
		s.Tick(cycle)
	}
	if len(got) != windows {
		t.Fatalf("%d windows emitted, want %d", len(got), windows)
	}
	for i, ws := range got {
		if p50, p99 := want[i].Percentile(50), want[i].Percentile(99); ws.LatencyP50Cycles != p50 || ws.LatencyP99Cycles != p99 {
			t.Fatalf("window %d: p50/p99 %v/%v, want %v/%v over its %d deliveries",
				i, ws.LatencyP50Cycles, ws.LatencyP99Cycles, p50, p99, want[i].N())
		}
	}
}

// TestPercentileEdgeCases pins the nearest-rank edge behavior of
// stats.CycleHistogram, the window sampler's percentile, with an
// explicit table driven through a fresh histogram and through one reset
// after unrelated samples, the way the sampler reuses its own. The
// audited hazard: at p→0⁺ the raw rank ceil(p/100·n) would be 0 (index
// −1); NaN p makes the float→int conversion implementation-defined.
// Percentile guards these (p<=0 short-circuits to the minimum; rank<1
// clamps to 1), and this table keeps any future edit honest about it.
func TestPercentileEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
	}{
		{"empty p50", nil, 50, 0},
		{"empty p0", nil, 0, 0},
		{"single p0", []float64{7}, 0, 7},
		{"single p negative", []float64{7}, -5, 7},
		{"single p tiny", []float64{7}, 1e-9, 7},
		{"single p50", []float64{7}, 50, 7},
		{"single p100", []float64{7}, 100, 7},
		{"single p over 100", []float64{7}, 150, 7},
		{"single p NaN", []float64{7}, math.NaN(), 7},
		{"pair p0", []float64{2, 1}, 0, 1},
		{"pair p tiny", []float64{2, 1}, 1e-9, 1},
		{"pair p50 is first", []float64{2, 1}, 50, 1},
		{"pair just past p50", []float64{2, 1}, math.Nextafter(50, 100), 2},
		{"pair p100", []float64{2, 1}, 100, 2},
		{"pair p NaN", []float64{2, 1}, math.NaN(), 1},
		{"quad p25 boundary", []float64{40, 10, 30, 20}, 25, 10},
		{"quad just past p25", []float64{40, 10, 30, 20}, math.Nextafter(25, 100), 20},
		{"quad p75 boundary", []float64{40, 10, 30, 20}, 75, 30},
		{"quad p99", []float64{40, 10, 30, 20}, 99, 40},
		{"quad p tiny", []float64{40, 10, 30, 20}, 1e-12, 10},
	}
	var reused stats.CycleHistogram
	for _, tc := range cases {
		for _, v := range []int64{9000, 3, 600} {
			reused.Add(v)
		}
		reused.Reset()
		var fresh stats.CycleHistogram
		for _, v := range tc.samples {
			fresh.Add(int64(v))
			reused.Add(int64(v))
		}
		for name, h := range map[string]*stats.CycleHistogram{"fresh": &fresh, "reset": &reused} {
			if got := h.Percentile(tc.p); got != tc.want {
				t.Errorf("%s: %s Percentile = %v, want %v", tc.name, name, got, tc.want)
			}
			if got := h.Percentiles(tc.p); got[0] != tc.want {
				t.Errorf("%s: %s Percentiles = %v, want %v", tc.name, name, got[0], tc.want)
			}
		}
		reused.Reset()
	}
}
