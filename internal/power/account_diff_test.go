package power

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/photonic"
)

// formulaAccount integrates the time-scaled components the way Account
// did before it memoised them: the cycle time and the state's power are
// recomputed at every call. Account's totals must equal these bit for
// bit, since the digests and goldens were recorded with this
// arithmetic.
type formulaAccount struct {
	clockHz                                 float64
	laserJ, heatingJ, modulationJ, leakageJ float64
}

func (f *formulaAccount) addRouterCycle(s photonic.WLState) {
	dt := 1 / f.clockHz
	f.laserJ += LaserRouterPowerW(s) * dt
	f.heatingJ += RingHeatingRouterW(s) * dt
}

func (f *formulaAccount) addModulation(nWavelengths, cycles int) {
	f.modulationJ += float64(nWavelengths) * photonic.RingModulatingW *
		float64(cycles) * (1 / f.clockHz)
}

func (f *formulaAccount) addElectricalLeakage(nRouters int) {
	f.leakageJ += float64(nRouters) * CMESHLeakagePerRouterW * (1 / f.clockHz)
}

func checkAgainstFormula(t *testing.T, a *Account, f *formulaAccount) {
	t.Helper()
	b := a.Breakdown()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"laser", b.Laser, f.laserJ},
		{"heating", b.Heating, f.heatingJ},
		{"modulation", b.Modulation, f.modulationJ},
		{"electrical leakage", b.ElectricalLeakage, f.leakageJ},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s = %v (%#x), formula gives %v (%#x)",
				c.name, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
}

// TestAccountMatchesFormula drives random state sequences of well over
// 10^5 router-cycles, long enough for a different rounding (count x
// constant, say) to show in the low bits.
func TestAccountMatchesFormula(t *testing.T) {
	states := photonic.States()
	for _, clockHz := range []float64{config.NetworkFrequencyHz, 2e9, 3.3e9} {
		rng := rand.New(rand.NewSource(int64(clockHz)))
		a := NewAccount(clockHz)
		f := &formulaAccount{clockHz: clockHz}
		for cycle := 0; cycle < 8000; cycle++ {
			for r := 0; r < config.NumRouters; r++ {
				s := states[rng.Intn(len(states))]
				a.AddRouterCycle(s)
				f.addRouterCycle(s)
			}
			wl, cycles := 1+rng.Intn(config.MaxWavelengths), 1+rng.Intn(40)
			a.AddModulation(wl, cycles)
			f.addModulation(wl, cycles)
			a.AddElectricalLeakage(16)
			f.addElectricalLeakage(16)
			a.AddCycle()
		}
		checkAgainstFormula(t, a, f)
		if got, want := a.Seconds(), 8000*(1/clockHz); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Seconds = %v, want %v", got, want)
		}
	}
}

func TestAddRouterCycleInvalidStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic for a state outside the five")
		}
	}()
	NewAccount(2e9).AddRouterCycle(photonic.NumStates)
}

// FuzzAccountRouterCycles reads each input byte as one router-cycle's
// state and compares the static totals with the formula.
func FuzzAccountRouterCycles(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4})
	f.Add([]byte{0, 1, 2, 3, 4, 4, 3, 2, 1, 0})
	f.Add([]byte{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewAccount(config.NetworkFrequencyHz)
		ref := &formulaAccount{clockHz: config.NetworkFrequencyHz}
		for _, b := range data {
			s := photonic.WLState(b % byte(photonic.NumStates))
			a.AddRouterCycle(s)
			ref.addRouterCycle(s)
		}
		checkAgainstFormula(t, a, ref)
	})
}
