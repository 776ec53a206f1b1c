package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/photonic"
)

func TestLaserNetworkPowerMatchesPaper(t *testing.T) {
	if photonic.WL64.LaserPowerW() != 1.16 {
		t.Errorf("64WL network laser = %v, want 1.16 W", photonic.WL64.LaserPowerW())
	}
	if photonic.WL8.LaserPowerW() != 0.145 {
		t.Errorf("8WL network laser = %v, want 0.145 W", photonic.WL8.LaserPowerW())
	}
}

func TestLaserRouterPowerSums(t *testing.T) {
	per := LaserRouterPowerW(photonic.WL64)
	if math.Abs(per*float64(config.NumRouters)-1.16) > 1e-12 {
		t.Errorf("router power %v x %d != 1.16", per, config.NumRouters)
	}
}

func TestRingHeatingScalesWithState(t *testing.T) {
	full := RingHeatingRouterW(photonic.WL64)
	half := RingHeatingRouterW(photonic.WL32)
	if math.Abs(half-full/2) > 1e-15 {
		t.Errorf("32WL heating %v != half of 64WL %v", half, full)
	}
	// 1088 rings x 26uW = 28.3 mW at full power.
	want := 1088 * 26e-6
	if math.Abs(full-want) > 1e-12 {
		t.Errorf("full heating = %v, want %v", full, want)
	}
}

func TestAverageLaserPowerUniformState(t *testing.T) {
	// All 17 routers at 64WL for 1000 cycles must average exactly the
	// paper's 1.16 W network figure.
	a := NewAccount(2e9)
	for c := 0; c < 1000; c++ {
		for r := 0; r < config.NumRouters; r++ {
			a.AddRouterCycle(photonic.WL64)
		}
		a.AddCycle()
	}
	if got := a.AverageLaserPowerW(); math.Abs(got-1.16) > 1e-9 {
		t.Fatalf("avg laser = %v, want 1.16", got)
	}
}

func TestAverageLaserPowerMixedStates(t *testing.T) {
	// Half the time at 64WL, half at 16WL -> (1.16+0.29)/2.
	a := NewAccount(2e9)
	for c := 0; c < 1000; c++ {
		s := photonic.WL64
		if c >= 500 {
			s = photonic.WL16
		}
		for r := 0; r < config.NumRouters; r++ {
			a.AddRouterCycle(s)
		}
		a.AddCycle()
	}
	want := (1.16 + 0.29) / 2
	if got := a.AverageLaserPowerW(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("avg laser = %v, want %v", got, want)
	}
}

func TestEnergyPerBit(t *testing.T) {
	a := NewAccount(2e9)
	a.AddConversion(1000)
	a.AddDeliveredBits(1000)
	want := EOConversionJPerBit + OEConversionJPerBit
	if got := a.EnergyPerBitJ(); math.Abs(got-want) > 1e-18 {
		t.Fatalf("energy/bit = %v, want %v", got, want)
	}
	empty := NewAccount(2e9)
	if empty.EnergyPerBitJ() != 0 {
		t.Fatal("empty account should report 0 energy/bit")
	}
}

func TestModulationEnergy(t *testing.T) {
	a := NewAccount(2e9)
	a.AddModulation(64, 2) // 64 rings for 2 cycles at 500uW
	want := 64 * 500e-6 * 2 * 0.5e-9
	if got := a.Breakdown().Modulation; math.Abs(got-want) > 1e-18 {
		t.Fatalf("modulation = %v, want %v", got, want)
	}
}

func TestMLEnergyConstants(t *testing.T) {
	// 44.6 pJ per prediction every 500 cycles at 2 GHz = 44.6pJ/250ns =
	// 178.4 uW, the paper's figure.
	period := 500.0 / 2e9
	implied := MLPredictionEnergyJ / period
	if math.Abs(implied-MLPowerAtRW500W) > 1e-9 {
		t.Fatalf("ML power implied %v, constant %v", implied, MLPowerAtRW500W)
	}
	a := NewAccount(2e9)
	a.AddMLPrediction()
	a.AddMLPrediction()
	if got := a.Breakdown().ML; math.Abs(got-2*MLPredictionEnergyJ) > 1e-20 {
		t.Fatalf("ML energy = %v", got)
	}
}

func TestElectricalAccounting(t *testing.T) {
	a := NewAccount(2e9)
	a.AddElectricalHop(128, true)
	a.AddElectricalHop(128, false) // ejection hop, no link
	b := a.Breakdown()
	if math.Abs(b.ElectricalRouter-2*128*CMESHRouterJPerBit) > 1e-18 {
		t.Fatalf("router energy = %v", b.ElectricalRouter)
	}
	if math.Abs(b.ElectricalLink-128*CMESHLinkJPerBitPerHop) > 1e-18 {
		t.Fatalf("link energy = %v", b.ElectricalLink)
	}
	a.AddElectricalLeakage(16)
	if a.Breakdown().ElectricalLeakage <= 0 {
		t.Fatal("leakage not charged")
	}
}

func TestTotalsAreConsistent(t *testing.T) {
	a := NewAccount(2e9)
	a.AddRouterCycle(photonic.WL32)
	a.AddModulation(32, 4)
	a.AddConversion(640)
	a.AddMLPrediction()
	a.AddElectricalHop(128, true)
	a.AddElectricalLeakage(16)
	b := a.Breakdown()
	photonicSum := b.Laser + b.Heating + b.Modulation + b.Conversion + b.ML
	electricalSum := b.ElectricalRouter + b.ElectricalLink + b.ElectricalLeakage
	if math.Abs(a.TotalPhotonicEnergyJ()-photonicSum) > 1e-18 {
		t.Fatal("photonic total mismatch")
	}
	if math.Abs(a.TotalElectricalEnergyJ()-electricalSum) > 1e-18 {
		t.Fatal("electrical total mismatch")
	}
	if math.Abs(a.TotalEnergyJ()-(photonicSum+electricalSum)) > 1e-18 {
		t.Fatal("grand total mismatch")
	}
	if a.String() == "" {
		t.Fatal("String should be non-empty")
	}
}

func TestLaserEnergyMonotoneInStateProperty(t *testing.T) {
	// For any cycle count, a run held in a higher state never uses less
	// laser energy.
	f := func(rawCycles uint8) bool {
		cycles := int(rawCycles)%100 + 1
		prev := -1.0
		for _, s := range photonic.States() {
			a := NewAccount(2e9)
			for i := 0; i < cycles; i++ {
				for r := 0; r < config.NumRouters; r++ {
					a.AddRouterCycle(s)
				}
				a.AddCycle()
			}
			if a.LaserEnergyJ() <= prev {
				return false
			}
			prev = a.LaserEnergyJ()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewAccountPanicsOnBadClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAccount(0)
}

func TestCMESHEnergyPerBitExceedsPhotonicAtScale(t *testing.T) {
	// Sanity check on calibration: a 3-hop CMESH traversal must cost
	// more per bit than the photonic dynamic path (conversion +
	// modulation amortised), leaving the static laser to set the
	// crossover as in Figure 5.
	cmeshPerBit := 3*CMESHRouterJPerBit + 2*CMESHLinkJPerBitPerHop
	photonicDynamicPerBit := EOConversionJPerBit + OEConversionJPerBit
	if cmeshPerBit <= 2*photonicDynamicPerBit {
		t.Fatalf("CMESH %.3g J/bit not clearly above photonic dynamic %.3g J/bit",
			cmeshPerBit, photonicDynamicPerBit)
	}
}
