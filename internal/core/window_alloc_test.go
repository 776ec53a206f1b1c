// Excluded under -race: the race runtime instruments allocations and
// AllocsPerRun observes its bookkeeping.
//
//go:build !race

package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// TestWindowBoundaryZeroAllocs: an idle PEARL-Dyn network stepping ten
// whole reservation windows allocates nothing, counted over the whole
// run rather than per cycle (where AllocsPerRun's integer division
// would hide one allocation per router per window). Each router's
// window boundary snapshots its feature vector into a buffer its
// collector owns.
func TestWindowBoundaryZeroAllocs(t *testing.T) {
	cfg := config.PEARLDyn()
	engine := sim.NewEngine()
	net, err := New(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine.Register(net)
	window := int64(cfg.ReservationWindow)
	engine.Run(2 * window)
	if allocs := testing.AllocsPerRun(1, func() { engine.Run(10 * window) }); allocs != 0 {
		t.Fatalf("ten idle windows allocate %v times, want 0", allocs)
	}
}
