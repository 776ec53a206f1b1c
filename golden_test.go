package pearl

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/traffic"
)

// Golden regression values for the frozen calibration (seed 2018,
// fluidanimate+DCT, 1000 warmup + 10000 measured cycles). The whole stack
// is deterministic, so these must match bit-for-bit run over run; any
// intentional change to the traffic model, router microarchitecture or
// power accounting must update them consciously.
func goldenOptions() experiments.Options {
	opts := experiments.Quick()
	opts.MeasureCycles = 10000
	opts.WarmupCycles = 1000
	return opts
}

func goldenPoint(cfg config.Config) experiments.Point {
	return experiments.Point{Backend: "pearl", Config: cfg, Pair: traffic.TestPairs()[0]}
}

func TestGoldenPEARLDyn(t *testing.T) {
	res, err := experiments.Run(context.Background(), goldenPoint(config.PEARLDyn()), goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Delivered.TotalBits(); got != 8566400 {
		t.Errorf("delivered bits = %d, golden 8566400", got)
	}
	if got := res.Account.AverageLaserPowerW(); math.Abs(got-1.16) > 1e-9 {
		t.Errorf("laser = %v, golden 1.16", got)
	}
	if got := res.Metrics.Latency.Mean(); math.Abs(got-86.6041527471) > 1e-9 {
		t.Errorf("latency = %.10f, golden 86.6041527471", got)
	}
}

func TestGoldenDynRW500(t *testing.T) {
	res, err := experiments.Run(context.Background(), goldenPoint(config.DynRW(500)), goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Delivered.TotalBits(); got != 9158528 {
		t.Errorf("delivered bits = %d, golden 9158528", got)
	}
	if got := res.Account.AverageLaserPowerW(); math.Abs(got-0.7942302674) > 1e-9 {
		t.Errorf("laser = %.10f, golden 0.7942302674", got)
	}
	if got := res.Metrics.Latency.Mean(); math.Abs(got-215.9726978920) > 1e-9 {
		t.Errorf("latency = %.10f, golden 215.9726978920", got)
	}
}

// TestGoldenReplicaZero pins the seed fan's byte-identity contract:
// seed 0 of a multi-seed RunSeeds carries the base seed unchanged and
// must reproduce the single-run golden values exactly — same numbers,
// same cache identity.
func TestGoldenReplicaZero(t *testing.T) {
	p, opts := goldenPoint(config.PEARLDyn()), goldenOptions()
	seeds := experiments.ReplicaSeeds(opts.Seed, p.Name(), p.Pair.Name(), 3)
	results, err := experiments.RunSeeds(context.Background(), p, opts, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	res := results[0]
	if got := res.Metrics.Delivered.TotalBits(); got != 8566400 {
		t.Errorf("replica 0 delivered bits = %d, golden 8566400", got)
	}
	if got := res.Account.AverageLaserPowerW(); math.Abs(got-1.16) > 1e-9 {
		t.Errorf("replica 0 laser = %v, golden 1.16", got)
	}
	if got := res.Metrics.Latency.Mean(); math.Abs(got-86.6041527471) > 1e-9 {
		t.Errorf("replica 0 latency = %.10f, golden 86.6041527471", got)
	}
}

func TestGoldenCMESH(t *testing.T) {
	p := experiments.Point{Backend: "cmesh", Config: config.Default(), LinkScale: 1, Pair: traffic.TestPairs()[0]}
	res, err := experiments.Run(context.Background(), p, goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Delivered.TotalBits(); got != 6562944 {
		t.Errorf("delivered bits = %d, golden 6562944", got)
	}
	if got := res.Metrics.Latency.Mean(); math.Abs(got-279.2912551508) > 1e-9 {
		t.Errorf("latency = %.10f, golden 279.2912551508", got)
	}
}

// TestGoldenLatencyUnion pins the latency fields of a result's digest on
// both backends: each delivered packet is counted once, in its class
// histogram, and the total is their union, so its N is the two classes'
// sum and its mean and nearest-rank percentiles are bit-equal to those
// of one histogram recording every packet. The CMESH run's p99 and
// maximum lie past the dense counters, in the merged overflow.
func TestGoldenLatencyUnion(t *testing.T) {
	for _, tc := range []struct {
		point              experiments.Point
		cpuN, gpuN         int64
		mean, cpuM, gpuM   float64
		min, p50, p99, max float64
	}{
		{goldenPoint(config.PEARLDyn()), 9551, 9906,
			86.604152747083319, 44.149513139985345, 127.53735110034323, 6, 44, 289, 1123},
		{experiments.Point{Backend: "cmesh", Config: config.Default(), LinkScale: 1, Pair: traffic.TestPairs()[0]}, 8260, 7029,
			279.29125515076197, 72.822276029055686, 521.9194764546877, 0, 79, 7141, 9320},
	} {
		res, err := experiments.Run(context.Background(), tc.point, goldenOptions())
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if m.CPULatency.N() != tc.cpuN || m.GPULatency.N() != tc.gpuN {
			t.Errorf("%s: class counts %d + %d, golden %d + %d", tc.point.Backend, m.CPULatency.N(), m.GPULatency.N(), tc.cpuN, tc.gpuN)
		}
		if n := m.Latency.N(); n != m.CPULatency.N()+m.GPULatency.N() || uint64(n) != m.Delivered.TotalPackets() {
			t.Errorf("%s: Latency.N() = %d, classes %d + %d, delivered %d", tc.point.Backend, n, m.CPULatency.N(), m.GPULatency.N(), m.Delivered.TotalPackets())
		}
		if m.Latency.Mean() != tc.mean || m.CPULatency.Mean() != tc.cpuM || m.GPULatency.Mean() != tc.gpuM {
			t.Errorf("%s: means %v, %v, %v; golden %v, %v, %v", tc.point.Backend,
				m.Latency.Mean(), m.CPULatency.Mean(), m.GPULatency.Mean(), tc.mean, tc.cpuM, tc.gpuM)
		}
		want := []float64{tc.min, tc.p50, tc.p99, tc.max}
		if got := m.Latency.Percentiles(0, 50, 99, 100); !slices.Equal(got, want) {
			t.Errorf("%s: min, p50, p99, max = %v, golden %v", tc.point.Backend, got, want)
		}
	}
}
