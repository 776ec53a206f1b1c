package photonic

// Thermal model of the microring trimming problem (§III.A.1: "Due to
// thermal sensitivity, ring heaters are used to ensure that the
// wavelength drift is avoided"). Microring resonances red-shift with
// temperature (~0.09 nm/K in silicon); dense WDM spacing leaves about
// 1.5 K of tolerance (a quarter of the 35/64 nm channel spacing, at
// 0.09 nm/K), so each ring is held at a setpoint above the hottest
// expected substrate temperature by a feedback-controlled heater. The interesting system-level consequence: power scaling cools
// the chip, which *increases* heater (trimming) power — partially
// offsetting laser savings — unless the four-bank design also gates the
// idle banks' heaters (§III.C), which PEARL does. The trimming study
// reads the heater's closed-form steady state (SteadyStateHeaterW); the
// package tests integrate the feedback loop to check that it settles
// there.

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

// ThermalConfig parameterises a router site's ring-bank island at
// thermal equilibrium.
type ThermalConfig struct {
	// ConductanceWPerK couples the site to the heat sink / ambient.
	ConductanceWPerK float64
	// SetpointC is the ring stabilisation temperature; it must exceed
	// the hottest substrate temperature the site can reach, since
	// heaters can only add heat.
	SetpointC float64
	// HeaterMaxW bounds a site's total trimming power.
	HeaterMaxW float64
}

// IslandCoupling is the fraction of a router site's activity power that
// heats the ring-bank island locally (the bulk conducts the rest straight
// to the heat sink).
const IslandCoupling = 0.15

// DefaultThermalConfig returns the configuration of one router's
// ring-bank island, scaled so the idle trimming power matches Table V's
// ~28 mW/router (1088 rings x 26 uW): 3 mW/K island coupling held 10 K
// above ambient.
func DefaultThermalConfig() ThermalConfig {
	return ThermalConfig{
		ConductanceWPerK: 0.003, // island-to-substrate coupling
		SetpointC:        AmbientC + 10,
		HeaterMaxW:       0.1,
	}
}

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
