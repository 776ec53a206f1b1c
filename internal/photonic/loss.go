package photonic

import "math"

// LossBudget carries the Table V optical component losses (dB) and
// receiver sensitivity (dBm) used to derive the required laser output
// power per wavelength.
type LossBudget struct {
	ModulatorInsertionDB float64 // dB
	WaveguideDBPerCM     float64 // dB/cm
	CouplerDB            float64 // dB
	SplitterDB           float64 // dB
	FilterThroughDB      float64 // dB, per ring passed in the through port
	FilterDropDB         float64 // dB, at the receiving ring
	PhotodetectorDB      float64 // dB
	ReceiverSensDBm      float64 // dBm, minimum detectable power

	// WaveguideLengthCM is the worst-case on-chip path (the crossbar
	// spans the 4x4 grid; ~3 cm for a ~20x20 mm die with serpentine
	// routing).
	WaveguideLengthCM float64
	// ThroughRings is the number of detuned rings the signal passes
	// before its drop ring: 16 receivers x 64 rings in the worst case.
	ThroughRings int
}

// TableV returns the paper's Table V loss budget.
func TableV() LossBudget {
	return LossBudget{
		ModulatorInsertionDB: 1.0,
		WaveguideDBPerCM:     1.0,
		CouplerDB:            1.0,
		SplitterDB:           0.2,
		FilterThroughDB:      1.00e-3,
		FilterDropDB:         1.5,
		PhotodetectorDB:      0.1,
		ReceiverSensDBm:      -15,
		WaveguideLengthCM:    3.0,
		ThroughRings:         16 * 64,
	}
}

// TotalLossDB sums the worst-case path loss in dB.
func (l LossBudget) TotalLossDB() float64 {
	return l.ModulatorInsertionDB +
		float64(l.WaveguideDBPerCM*l.WaveguideLengthCM) +
		l.CouplerDB +
		l.SplitterDB +
		float64(l.FilterThroughDB*float64(l.ThroughRings)) +
		l.FilterDropDB +
		l.PhotodetectorDB
}

// RequiredLaserOutputDBm is the per-wavelength optical power the laser
// must emit so the worst-case receiver still sees its sensitivity floor.
func (l LossBudget) RequiredLaserOutputDBm() float64 {
	return l.ReceiverSensDBm + l.TotalLossDB()
}

// RequiredLaserOutputMW converts the required output to milliwatts.
func (l LossBudget) RequiredLaserOutputMW() float64 {
	return math.Pow(10, l.RequiredLaserOutputDBm()/10)
}

// WallPlugEfficiency returns the laser electrical-to-optical efficiency
// implied by this budget and the paper's 18.125 mW-per-wavelength
// electrical figure (1.16 W / 64 WL). On-chip InP Fabry-Perot lasers land
// in the low single-digit percent range once driver overheads are
// included, consistent with §II.C's 5-8% ceiling for external lasers.
func (l LossBudget) WallPlugEfficiency() float64 {
	perWLElectricalMW := WL64.LaserPowerW() / 64 * 1000
	return l.RequiredLaserOutputMW() / perWLElectricalMW
}

// Ring thermal and modulation power from Table V.
const (
	RingHeatingW    = 26e-6  // 26 uW per ring
	RingModulatingW = 500e-6 // 500 uW per actively modulating ring
)

// Device geometry and speed from §III.A.1 and Table II.
const (
	MRRDiameterUm         = 3.3
	MRRFootprintUm        = 12
	ModulatorDelayPs      = 80
	WaveguidePropPsPerMM  = 10.45
	WaveguidePitchUm      = 5.28
	WaveguideAttenDBPerCM = 1.3 // §III.A.1 figure (Table V uses 1.0)
	MaxModulationGbps     = 18
)

// PropagationCycles returns the whole network cycles light needs to cross
// lengthMM of waveguide at the given network clock.
func PropagationCycles(lengthMM, clockHz float64) int {
	seconds := lengthMM * WaveguidePropPsPerMM * 1e-12
	cycles := seconds * clockHz
	n := int(cycles)
	if float64(n) < cycles {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// RingsPerRouter counts the microrings a PEARL router carries: 64
// modulating rings on its send waveguide plus 64 receive rings for each of
// the 16 other channels it listens on (§III.A.3's four photodetector
// sets).
func RingsPerRouter(numRouters, wavelengths int) int {
	return wavelengths + (numRouters-1)*wavelengths
}
