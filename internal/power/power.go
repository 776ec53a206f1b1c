// Package power implements the energy accounting behind Figures 5, 7 and
// 11: photonic static power (laser, ring trimming/heating), photonic
// dynamic power (ring modulation, E/O and O/E conversion), the ML
// predictor's compute energy, and the electrical CMESH router/link energy
// model. All experiments compare configurations through this single
// accounting path so relative results are apples-to-apples.
package power

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/photonic"
)

// Photonic dynamic-energy constants. E/O and O/E conversion (modulator
// driver, photodetector, TIA, voltage amplifier, SerDes) land around a few
// hundred femtojoules per bit for the 16 Gbps links the paper assumes
// (§IV.B, DSENT-class models).
const (
	// EOConversionJPerBit is the transmit-side conversion energy.
	EOConversionJPerBit = 0.15e-12
	// OEConversionJPerBit is the receive-side conversion energy.
	OEConversionJPerBit = 0.20e-12
)

// ML hardware cost from §IV.B: 30 multiplies + 29 adds of 16-bit values
// cost 44.6 pJ per prediction, amortising to 178.4 uW at a 500-cycle
// reservation window.
const (
	MLPredictionEnergyJ  = 44.6e-12
	MLPredictionDelayNs  = 5
	MLPowerAtRW500W      = 178.4e-6
	MLAddEnergyPerOpJ    = 44.6e-12 * (46.4 / 178.4) / 29
	MLMultiplyPowerShare = 132.0 / 178.4
)

// Electrical CMESH energy model. The baseline is calibrated DSENT-style:
// per-bit router traversal energy, per-bit per-hop link energy (concentrated
// mesh hop ~5 mm on a ~20x20 mm die), and router leakage.
const (
	// CMESHRouterJPerBit is buffer write/read + crossbar + arbitration
	// per bit per router traversal.
	CMESHRouterJPerBit = 1.2e-12
	// CMESHLinkJPerBitPerHop is wire energy for one 5 mm concentrated
	// mesh hop.
	CMESHLinkJPerBitPerHop = 2.0e-12
	// CMESHLeakagePerRouterW is static leakage per electrical router.
	CMESHLeakagePerRouterW = 25e-3
)

// LaserRouterPowerW is one router's laser power in the given state.
func LaserRouterPowerW(s photonic.WLState) float64 {
	return s.LaserPowerW() / float64(config.NumRouters)
}

// RingHeatingRouterW returns a router's trimming/heating power in the
// given state. The four-bank design powers heaters bank-by-bank with the
// lasers (§III.C: the split "allows for reducing the trimming power along
// with the laser"), so heating scales with the active-wavelength fraction.
func RingHeatingRouterW(s photonic.WLState) float64 {
	rings := photonic.RingsPerRouter(config.NumRouters, config.MaxWavelengths)
	fraction := float64(s.Wavelengths()) / config.MaxWavelengths
	return float64(rings) * photonic.RingHeatingW * fraction
}

// Account integrates energy over a run. The simulator calls the Add*
// methods; reporters read the totals.
type Account struct {
	// dt is the duration of one network cycle in seconds.
	dt float64
	// routerCycle is the static energy one router draws in one cycle,
	// per wavelength state, so AddRouterCycle adds constants.
	routerCycle [photonic.NumStates]struct{ laserJ, heatingJ float64 }

	laserJ      float64
	heatingJ    float64
	modulationJ float64
	conversionJ float64
	mlJ         float64

	electricalRouterJ  float64
	electricalLinkJ    float64
	electricalLeakageJ float64

	deliveredBits uint64
	cycles        int64
}

// NewAccount returns an accumulator for the given network clock.
func NewAccount(clockHz float64) *Account {
	if clockHz <= 0 {
		panic("power: non-positive clock")
	}
	a := &Account{dt: 1 / clockHz}
	for _, s := range photonic.States() {
		a.routerCycle[s].laserJ = LaserRouterPowerW(s) * a.dt
		a.routerCycle[s].heatingJ = RingHeatingRouterW(s) * a.dt
	}
	return a
}

// AddRouterCycle integrates one router-cycle of photonic static power in
// the given state (laser plus heating). It adds the same per-cycle
// addends in the same order as computing power*dt each call would, so
// totals are bit-identical to that; count*constant would round
// differently.
func (a *Account) AddRouterCycle(s photonic.WLState) {
	e := &a.routerCycle[s]
	a.laserJ += e.laserJ
	a.heatingJ += e.heatingJ
}

// AddCycle advances global time by one cycle. Call exactly once per
// simulated cycle.
func (a *Account) AddCycle() { a.cycles++ }

// AddModulation charges ring modulation power for transmitting bits
// through nWavelengths active rings for cycles network cycles.
func (a *Account) AddModulation(nWavelengths int, cycles int) {
	a.modulationJ += float64(float64(nWavelengths) * photonic.RingModulatingW *
		float64(cycles) * a.dt)
}

// AddConversion charges E/O + O/E energy for bits crossing the link.
func (a *Account) AddConversion(bits int) {
	a.conversionJ += float64(float64(bits) * (EOConversionJPerBit + OEConversionJPerBit))
}

// AddMLPrediction charges one ridge-regression inference.
func (a *Account) AddMLPrediction() { a.mlJ += MLPredictionEnergyJ }

// AddElectricalHop charges a CMESH router traversal plus one outgoing link
// hop for bits.
func (a *Account) AddElectricalHop(bits int, traverseLink bool) {
	a.electricalRouterJ += float64(bits) * CMESHRouterJPerBit
	if traverseLink {
		a.electricalLinkJ += float64(bits) * CMESHLinkJPerBitPerHop
	}
}

// AddElectricalLeakage charges leakage for n routers over one cycle.
func (a *Account) AddElectricalLeakage(nRouters int) {
	a.electricalLeakageJ += float64(float64(nRouters) * CMESHLeakagePerRouterW * a.dt)
}

// AddDeliveredBits records payload bits that reached their destination;
// the denominator of energy-per-bit.
func (a *Account) AddDeliveredBits(bits int) { a.deliveredBits += uint64(bits) }

// Seconds returns elapsed simulated time.
func (a *Account) Seconds() float64 { return float64(a.cycles) * a.dt }

// LaserEnergyJ returns total laser energy.
func (a *Account) LaserEnergyJ() float64 { return a.laserJ }

// AverageLaserPowerW returns mean network laser power over the run — the
// Figure 7 metric.
func (a *Account) AverageLaserPowerW() float64 {
	sec := a.Seconds()
	if sec == 0 {
		return 0
	}
	return a.laserJ / sec
}

// TotalPhotonicEnergyJ sums every photonic component plus ML compute.
func (a *Account) TotalPhotonicEnergyJ() float64 {
	return a.laserJ + a.heatingJ + a.modulationJ + a.conversionJ + a.mlJ
}

// TotalElectricalEnergyJ sums the CMESH components.
func (a *Account) TotalElectricalEnergyJ() float64 {
	return a.electricalRouterJ + a.electricalLinkJ + a.electricalLeakageJ
}

// TotalEnergyJ sums everything charged to this account.
func (a *Account) TotalEnergyJ() float64 {
	return a.TotalPhotonicEnergyJ() + a.TotalElectricalEnergyJ()
}

// DeliveredBits returns the payload bits delivered.
func (a *Account) DeliveredBits() uint64 { return a.deliveredBits }

// EnergyPerBitJ returns total energy divided by delivered bits — the
// Figure 5 metric. Returns 0 when nothing was delivered.
func (a *Account) EnergyPerBitJ() float64 {
	if a.deliveredBits == 0 {
		return 0
	}
	return a.TotalEnergyJ() / float64(a.deliveredBits)
}

// Breakdown reports each component in joules for diagnostics.
type Breakdown struct {
	Laser, Heating, Modulation, Conversion, ML          float64
	ElectricalRouter, ElectricalLink, ElectricalLeakage float64
}

// Breakdown returns the per-component energy totals.
func (a *Account) Breakdown() Breakdown {
	return Breakdown{
		Laser: a.laserJ, Heating: a.heatingJ, Modulation: a.modulationJ,
		Conversion: a.conversionJ, ML: a.mlJ,
		ElectricalRouter: a.electricalRouterJ, ElectricalLink: a.electricalLinkJ,
		ElectricalLeakage: a.electricalLeakageJ,
	}
}

func (a *Account) String() string {
	return fmt.Sprintf("energy: %.3g J total, %.3g pJ/bit, avg laser %.3g W",
		a.TotalEnergyJ(), a.EnergyPerBitJ()*1e12, a.AverageLaserPowerW())
}
