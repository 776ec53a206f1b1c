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
// the arbiter every cycle, and the CMESH baseline at link scale 1 under
// the same workload — and asserts that stepping allocates nothing.
// After warmup every structure the kernel touches (ring-calendar slots,
// circular-queue buffers, flit rings, the packet pool, response queues)
// has reached its high-water capacity, so any allocation here is a
// regression, not growth.
func TestKernelSteadyStateZeroAllocs(t *testing.T) {
	for _, k := range []struct {
		name  string
		build func(testing.TB) *sim.Engine
	}{
		{"PEARL-Dyn", buildPEARLKernel},
		{"CMESH", buildCMESHKernel},
	} {
		t.Run(k.name, func(t *testing.T) {
			engine := k.build(t)
			const cycles = 5000
			if allocs := testing.AllocsPerRun(cycles, func() { engine.Step() }); allocs != 0 {
				t.Fatalf("steady-state kernel allocates: %v allocs/cycle over %d cycles, want 0", allocs, cycles)
			}
		})
	}
}
