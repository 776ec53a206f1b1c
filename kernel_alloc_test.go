// Steady-state allocation test for the cycle kernel. The benchmark in
// kernel_bench_test.go reports allocs/cycle, but a benchmark only warns;
// this test makes the zero-alloc property a hard invariant so a stray
// closure, interface boxing or append on the hot path fails CI instead
// of silently eroding the rewrite.
//
// Excluded under -race: the race runtime instruments allocations and
// AllocsPerRun observes its bookkeeping, so the count is meaningless
// there.
//
//go:build !race

package pearl

import (
	"testing"

	"repro/internal/sim"
)

// TestKernelSteadyStateZeroAllocs drives each warmed kernel — PEARL-Dyn
// with all 17 routers injecting under the fmm/DCT workload, saturating
// the arbiter every cycle, the same with the measurement layer on, and
// the CMESH baseline at link scales 1 and 4 under the same workload — and
// asserts that stepping allocates nothing. After warmup every structure
// the kernel touches (ring-calendar slots, circular-queue buffers, flit
// rings, the packet pool, response queues) has reached its high-water
// capacity, so any allocation here is a regression, not growth. The
// measured row first steps until the latency histograms' counters have
// grown to cover the latencies this workload produces.
func TestKernelSteadyStateZeroAllocs(t *testing.T) {
	for _, k := range []struct {
		name   string
		build  func(testing.TB) *sim.Engine
		settle int64
	}{
		{"PEARL-Dyn", buildPEARLKernel, 0},
		{"PEARL-Dyn measured", buildPEARLKernelMeasured, 20000},
		{"CMESH", buildCMESHKernel, 0},
		{"CMESH saturated", buildCMESHKernelSaturated, 0},
	} {
		t.Run(k.name, func(t *testing.T) {
			engine := k.build(t)
			engine.Run(k.settle)
			const cycles = 5000
			if allocs := testing.AllocsPerRun(cycles, func() { engine.Step() }); allocs != 0 {
				t.Fatalf("steady-state kernel allocates: %v allocs/cycle over %d cycles, want 0", allocs, cycles)
			}
		})
	}
}
