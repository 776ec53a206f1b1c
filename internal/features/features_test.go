package features

import (
	"testing"

	"repro/internal/noc"
)

func TestCountIs30(t *testing.T) {
	// Table III lists exactly 30 features.
	if Count != 30 {
		t.Fatalf("Count = %d, want 30", Count)
	}
}

func TestL3Flag(t *testing.T) {
	if NewCollector(false).Snapshot()[FeatL3Router] != 0 {
		t.Error("cluster router flagged as L3")
	}
	if NewCollector(true).Snapshot()[FeatL3Router] != 1 {
		t.Error("L3 router not flagged")
	}
}

func TestObserveCycleMeans(t *testing.T) {
	c := NewCollector(false)
	c.ObserveCycle(0.5, 0.1, 1.0, 0.0, true, 64)
	c.ObserveCycle(0.0, 0.3, 0.0, 0.2, false, 32)
	v := c.Snapshot()
	if v[FeatCPUCoreBufUtil] != 0.25 {
		t.Errorf("CPU core util = %v", v[FeatCPUCoreBufUtil])
	}
	if v[FeatCPUNetBufUtil] != 0.2 {
		t.Errorf("CPU net util = %v", v[FeatCPUNetBufUtil])
	}
	if v[FeatGPUCoreBufUtil] != 0.5 {
		t.Errorf("GPU core util = %v", v[FeatGPUCoreBufUtil])
	}
	if v[FeatGPUNetBufUtil] != 0.1 {
		t.Errorf("GPU net util = %v", v[FeatGPUNetBufUtil])
	}
	if v[FeatLinkUtil] != 0.5 {
		t.Errorf("link util = %v", v[FeatLinkUtil])
	}
	if v[FeatWavelengths] != 48 {
		t.Errorf("wavelengths = %v", v[FeatWavelengths])
	}
}

func TestPacketCounters(t *testing.T) {
	c := NewCollector(false)
	req := noc.NewRequest(1, 0, 16, noc.ClassCPU, noc.SrcCPUL1D, 0)
	resp := noc.NewResponse(2, 16, 0, noc.ClassCPU, noc.SrcL3, 0)
	c.CountInjection(req)
	c.CountSend(req)
	c.CountReceive(resp)
	c.CountEjection(resp)
	v := c.Snapshot()
	checks := map[int]float64{
		FeatInFromCores:                         1,
		FeatInFromRouters:                       1,
		FeatPktsToCore:                          1,
		FeatRequestsSent:                        1,
		FeatRequestsRecv:                        0,
		FeatResponsesSent:                       0,
		FeatResponsesRecv:                       1,
		FeatRequestSrcBase + int(noc.SrcCPUL1D): 1,
		FeatResponseSrcBase + int(noc.SrcL3):    1,
	}
	for idx, want := range checks {
		if v[idx] != want {
			t.Errorf("feature %d = %v, want %v", idx, v[idx], want)
		}
	}
}

func TestInjectedAndMeanBits(t *testing.T) {
	c := NewCollector(false)
	c.CountInjection(noc.NewRequest(1, 0, 1, noc.ClassCPU, noc.SrcCPUL1I, 0))
	c.CountInjection(noc.NewResponse(2, 0, 1, noc.ClassGPU, noc.SrcGPUL2Down, 0))
	if c.Injected() != 2 {
		t.Fatalf("injected = %d", c.Injected())
	}
	want := float64(noc.RequestBits+noc.ResponseBits) / 2
	if got := c.MeanInjectedBits(999); got != want {
		t.Fatalf("mean bits = %v, want %v", got, want)
	}
	empty := NewCollector(false)
	if empty.MeanInjectedBits(321) != 321 {
		t.Fatal("fallback mean not used")
	}
}

func TestReset(t *testing.T) {
	c := NewCollector(true)
	c.ObserveCycle(1, 1, 1, 1, true, 64)
	c.CountInjection(noc.NewRequest(1, 0, 1, noc.ClassCPU, noc.SrcCPUL1D, 0))
	c.Reset()
	v := c.Snapshot()
	for i, x := range v {
		if i == FeatL3Router {
			if x != 1 {
				t.Error("reset must preserve the L3 flag")
			}
			continue
		}
		if x != 0 {
			t.Errorf("feature %d = %v after reset", i, x)
		}
	}
}

func TestMovementPanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := noc.NewRequest(1, 0, 1, noc.ClassCPU, noc.Source(99), 0)
	NewCollector(false).CountInjection(p)
}

func TestSnapshotDoesNotReset(t *testing.T) {
	c := NewCollector(false)
	c.CountInjection(noc.NewRequest(1, 0, 1, noc.ClassCPU, noc.SrcCPUL1D, 0))
	_ = c.Snapshot()
	if c.Injected() != 1 {
		t.Fatal("Snapshot must not clear counters")
	}
}
