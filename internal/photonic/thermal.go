package photonic

import (
	"fmt"
	"math"
)

// Thermal model of the microring trimming problem (§III.A.1: "Due to
// thermal sensitivity, ring heaters are used to ensure that the
// wavelength drift is avoided"). Microring resonances red-shift with
// temperature (~0.09 nm/K in silicon); dense WDM spacing leaves well
// under a kelvin of tolerance, so each ring is held at a setpoint above
// the hottest expected substrate temperature by a feedback-controlled
// heater. The interesting system-level consequence: power scaling cools
// the chip, which *increases* heater (trimming) power — partially
// offsetting laser savings — unless the four-bank design also gates the
// idle banks' heaters (§III.C), which PEARL does.

// Silicon photonic thermal constants.
const (
	// RingDriftNmPerK is the resonance red-shift per kelvin.
	RingDriftNmPerK = 0.09
	// ChannelSpacingNm for 64 WDM channels across the C-band (~35 nm).
	ChannelSpacingNm = 35.0 / 64
	// DriftToleranceNm is how far a resonance may wander before the
	// drop-port power at the receiver degrades past the sensitivity
	// margin (half a channel spacing is a hard failure; practical
	// budgets allow a quarter).
	DriftToleranceNm = ChannelSpacingNm / 4
	// AmbientC is the package ambient in Celsius.
	AmbientC = 45.0
)

// ToleranceK is the temperature excursion a ring tolerates before
// detection fails.
func ToleranceK() float64 { return DriftToleranceNm / RingDriftNmPerK }

// DriftNm converts a temperature error to resonance drift.
func DriftNm(deltaK float64) float64 { return deltaK * RingDriftNmPerK }

// ThermalConfig parameterises a router-site thermal node.
type ThermalConfig struct {
	// HeatCapacityJPerK is the lumped thermal mass of a router site's
	// silicon (small: photonics sits in a thin device layer).
	HeatCapacityJPerK float64
	// ConductanceWPerK couples the site to the heat sink / ambient.
	ConductanceWPerK float64
	// SetpointC is the ring stabilisation temperature; it must exceed
	// the hottest substrate temperature the site can reach, since
	// heaters can only add heat.
	SetpointC float64
	// HeaterMaxW bounds a site's total trimming power.
	HeaterMaxW float64
	// Gain is the proportional feedback gain of the heater controller
	// (W per K of error).
	Gain float64
	// IntegralGain is the integral feedback gain (W per K-second),
	// eliminating the proportional controller's steady-state droop so
	// rings hold the setpoint within the drift tolerance.
	IntegralGain float64
}

// IslandCoupling is the fraction of a router site's activity power that
// heats the ring-bank island locally (the bulk conducts the rest straight
// to the heat sink).
const IslandCoupling = 0.15

// DefaultThermalConfig returns a stable configuration for one router's
// ring-bank island, scaled so the idle trimming power matches Table V's
// ~28 mW/router (1088 rings x 26 uW): 3 mW/K island coupling held 10 K
// above ambient.
func DefaultThermalConfig() ThermalConfig {
	return ThermalConfig{
		HeatCapacityJPerK: 5e-5,  // ring-bank island thermal mass
		ConductanceWPerK:  0.003, // island-to-substrate coupling
		SetpointC:         AmbientC + 10,
		HeaterMaxW:        0.1,
		Gain:              0.05,
		IntegralGain:      1,
	}
}

// Validate reports the first bad parameter.
func (c ThermalConfig) Validate() error {
	switch {
	case c.HeatCapacityJPerK <= 0:
		return fmt.Errorf("photonic: non-positive heat capacity %v", c.HeatCapacityJPerK)
	case c.ConductanceWPerK <= 0:
		return fmt.Errorf("photonic: non-positive conductance %v", c.ConductanceWPerK)
	case c.SetpointC <= AmbientC:
		return fmt.Errorf("photonic: setpoint %v not above ambient %v", c.SetpointC, AmbientC)
	case c.HeaterMaxW <= 0:
		return fmt.Errorf("photonic: non-positive heater limit %v", c.HeaterMaxW)
	case c.Gain <= 0:
		return fmt.Errorf("photonic: non-positive gain %v", c.Gain)
	case c.IntegralGain < 0:
		return fmt.Errorf("photonic: negative integral gain %v", c.IntegralGain)
	}
	return nil
}

// ThermalNode integrates one router site's temperature and heater
// feedback loop.
type ThermalNode struct {
	cfg ThermalConfig

	// tempC is the ring/device temperature.
	tempC float64
	// heaterW is the current trimming power.
	heaterW float64
	// integral accumulates the PI controller's error integral (K-s),
	// clamped for anti-windup.
	integral float64

	// heaterJ integrates trimming energy; violations counts steps where
	// drift exceeded tolerance.
	heaterJ    float64
	violations uint64
	steps      uint64
	maxErrK    float64
}

// NewThermalNode returns a node settled at its setpoint (heaters pre-trim
// the rings at boot).
func NewThermalNode(cfg ThermalConfig) (*ThermalNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ThermalNode{cfg: cfg, tempC: cfg.SetpointC}, nil
}

// Step advances the node by dt seconds with the given dissipated activity
// power (laser driver, modulators, receivers) heating the site. The
// heater applies proportional feedback toward the setpoint.
func (n *ThermalNode) Step(activityW, dt float64) {
	if dt <= 0 {
		panic("photonic: non-positive dt")
	}
	errK := n.cfg.SetpointC - n.tempC
	n.integral += errK * dt
	// Anti-windup: bound the integral contribution to the heater range.
	if lim := n.cfg.HeaterMaxW; n.cfg.IntegralGain > 0 {
		if n.integral > lim/n.cfg.IntegralGain {
			n.integral = lim / n.cfg.IntegralGain
		}
		if n.integral < -lim/n.cfg.IntegralGain {
			n.integral = -lim / n.cfg.IntegralGain
		}
	}
	n.heaterW = n.cfg.Gain*errK + n.cfg.IntegralGain*n.integral
	if n.heaterW < 0 {
		n.heaterW = 0
	}
	if n.heaterW > n.cfg.HeaterMaxW {
		n.heaterW = n.cfg.HeaterMaxW
	}
	inW := activityW + n.heaterW
	outW := n.cfg.ConductanceWPerK * (n.tempC - AmbientC)
	n.tempC += (inW - outW) * dt / n.cfg.HeatCapacityJPerK

	n.heaterJ += n.heaterW * dt
	n.steps++
	if e := math.Abs(n.cfg.SetpointC - n.tempC); e > n.maxErrK {
		n.maxErrK = e
	}
	if math.Abs(DriftNm(n.cfg.SetpointC-n.tempC)) > DriftToleranceNm {
		n.violations++
	}
}

// TemperatureC returns the current device temperature.
func (n *ThermalNode) TemperatureC() float64 { return n.tempC }

// HeaterW returns the current trimming power.
func (n *ThermalNode) HeaterW() float64 { return n.heaterW }

// HeaterEnergyJ returns the integrated trimming energy.
func (n *ThermalNode) HeaterEnergyJ() float64 { return n.heaterJ }

// MeanHeaterW returns trimming energy divided by elapsed time.
func (n *ThermalNode) MeanHeaterW(elapsedSeconds float64) float64 {
	if elapsedSeconds <= 0 {
		return 0
	}
	return n.heaterJ / elapsedSeconds
}

// Violations counts steps where ring drift exceeded the detection
// tolerance.
func (n *ThermalNode) Violations() uint64 { return n.violations }

// Steps returns integration steps taken.
func (n *ThermalNode) Steps() uint64 { return n.steps }

// MaxErrorK returns the worst temperature excursion observed.
func (n *ThermalNode) MaxErrorK() float64 { return n.maxErrK }

// SteadyStateHeaterW solves the equilibrium trimming power for a constant
// activity power: heater + activity = conductance x (T - ambient) with
// T regulated to the setpoint (when within the heater's range).
func (c ThermalConfig) SteadyStateHeaterW(activityW float64) float64 {
	needed := float64(c.ConductanceWPerK*(c.SetpointC-AmbientC)) - activityW
	if needed < 0 {
		return 0
	}
	if needed > c.HeaterMaxW {
		return c.HeaterMaxW
	}
	return needed
}
