// Kernel benchmarks: the simulation inner loop (Engine.Step ->
// Network.Tick -> 17x Router.tick) that every figure, batch point and
// pearld job ultimately spends its time in. One op is one network cycle,
// so ns/op reads as ns/cycle and allocs/op as allocs/cycle; cycles_per_sec
// is reported as a derived metric. BENCH_kernel.json records the
// before/after numbers for the allocation-free kernel rewrite, and
// cmd/benchgate compares fresh runs against that baseline in CI.
package pearl

import (
	"testing"

	"repro/internal/cmesh"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// kernelWarmupCycles brings the workload and buffers to steady state
// before timing starts, so the numbers reflect the sustained regime a
// fig5-style sweep runs in, not cold-start growth.
const kernelWarmupCycles = 2000

// buildPEARLKernel wires the standard PEARL-Dyn stack exactly as
// experiments.Run does, minus measurement (the kernel itself is the
// subject, not the stats layer). It is shared with the steady-state
// allocation test in kernel_alloc_test.go.
func buildPEARLKernel(b testing.TB) *sim.Engine { return buildPEARL(b, false) }

// buildPEARLKernelMeasured is the stack every experiments.Run actually
// steps: the same kernel with a power account attached and, after the
// warm-up, delivery statistics and state residency recording. The gap
// between BenchmarkKernelMeasured and BenchmarkKernel is the always-on
// measurement layer's cost per cycle.
func buildPEARLKernelMeasured(b testing.TB) *sim.Engine { return buildPEARL(b, true) }

func buildPEARL(b testing.TB, measured bool) *sim.Engine {
	b.Helper()
	engine := sim.NewEngine()
	net, err := core.New(engine, config.PEARLDyn())
	if err != nil {
		b.Fatal(err)
	}
	if measured {
		net.SetAccount(power.NewAccount(config.NetworkFrequencyHz))
	}
	w, err := traffic.NewWorkload(engine, net, traffic.TestPairs()[0], 2018)
	if err != nil {
		b.Fatal(err)
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(kernelWarmupCycles)
	if measured {
		net.StartMeasurement()
		w.StartMeasurement()
	}
	return engine
}

// benchmarkSteps times engine.Step, one op per network cycle.
func benchmarkSteps(b *testing.B, engine *sim.Engine) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Step()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "cycles/sec")
	}
}

// BenchmarkKernel times the photonic crossbar's steady-state cycle loop.
func BenchmarkKernel(b *testing.B) { benchmarkSteps(b, buildPEARLKernel(b)) }

// BenchmarkKernelMeasured times the same loop with the measurement
// layer on, the configuration figure sweeps and pearld jobs run in.
func BenchmarkKernelMeasured(b *testing.B) { benchmarkSteps(b, buildPEARLKernelMeasured(b)) }

// buildCMESHKernel wires the electrical baseline at link scale 1 under
// the same workload, seed and warm-up as buildPEARLKernel, and is shared
// with the allocation test the same way.
func buildCMESHKernel(b testing.TB) *sim.Engine { return buildCMESH(b, 1) }

// buildCMESHKernelSaturated is the same mesh at link scale 4, the
// Figure 5 point where the links, not the generators, set the pace:
// class queues stay full and most injections and queued responses are
// refused.
func buildCMESHKernelSaturated(b testing.TB) *sim.Engine { return buildCMESH(b, 4) }

func buildCMESH(b testing.TB, linkScale int) *sim.Engine {
	b.Helper()
	engine := sim.NewEngine()
	net, err := cmesh.New(engine, config.Default())
	if err != nil {
		b.Fatal(err)
	}
	net.SetLinkScale(linkScale)
	w, err := traffic.NewWorkload(engine, net, traffic.TestPairs()[0], 2018)
	if err != nil {
		b.Fatal(err)
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(kernelWarmupCycles)
	return engine
}

// BenchmarkKernelCMESH times the electrical baseline's cycle loop, which
// shares the engine, buffers and workload with the photonic kernel.
func BenchmarkKernelCMESH(b *testing.B) { benchmarkSteps(b, buildCMESHKernel(b)) }

// BenchmarkKernelCMESHSaturated times the saturated mesh (link scale 4).
func BenchmarkKernelCMESHSaturated(b *testing.B) { benchmarkSteps(b, buildCMESHKernelSaturated(b)) }
