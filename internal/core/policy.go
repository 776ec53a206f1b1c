package core

import (
	"repro/internal/config"
	"repro/internal/features"
	"repro/internal/noc"
	"repro/internal/photonic"
	"repro/internal/sim"
)

// FeatureCount is the width of the Table III feature vector handed to
// state policies (30).
const FeatureCount = features.Count

// WindowInfo is everything a state policy may consult at a
// reservation-window boundary. All of it is router-local, honouring the
// paper's no-global-coordination constraint.
type WindowInfo struct {
	// RouterID identifies the deciding router.
	RouterID int
	// Features is the window's Table III snapshot: the router's own
	// buffer, valid for the NextState call, so a policy that keeps it
	// keeps a copy.
	Features []float64
	// BetaTotal is the window's mean total buffer occupancy (Algorithm 1
	// step 7).
	BetaTotal float64
	// MeanPacketBits is the mean injected packet size this window.
	MeanPacketBits float64
	// InjectedFlits is the number of 128-bit flits injected from local
	// cores during the closing window — the ground-truth label online
	// learners consume.
	InjectedFlits int64
	// WindowCycles is the reservation window length.
	WindowCycles int
	// Current is the state the router is leaving.
	Current photonic.WLState
}

// StatePolicy chooses the wavelength state for the next reservation
// window.
type StatePolicy interface {
	NextState(w WindowInfo) photonic.WLState
}

// StaticPolicy keeps one state forever (the PEARL-Dyn / PEARL-FCFS
// fixed-wavelength configurations and the Figure 5 sweep).
type StaticPolicy struct {
	State photonic.WLState
}

// NextState returns the fixed state.
func (p StaticPolicy) NextState(WindowInfo) photonic.WLState { return p.State }

// ReactivePolicy is Algorithm 1 step 8: four occupancy thresholds select
// among the five states.
type ReactivePolicy struct {
	Thresholds config.PowerThresholds
	Allow8WL   bool
}

// NextState maps the window's mean occupancy through the thresholds.
func (p ReactivePolicy) NextState(w WindowInfo) photonic.WLState {
	return StateForOccupancy(w.BetaTotal, p.Thresholds, p.Allow8WL)
}

// StateForOccupancy implements Algorithm 1 step 8's threshold ladder.
func StateForOccupancy(betaTotal float64, t config.PowerThresholds, allow8 bool) photonic.WLState {
	switch {
	case betaTotal > t.Upper:
		return photonic.WL64
	case betaTotal > t.MidUpper:
		return photonic.WL48
	case betaTotal > t.MidLower:
		return photonic.WL32
	case betaTotal > t.Lower:
		return photonic.WL16
	default:
		return photonic.WL8.Clamp(allow8)
	}
}

// PacketPredictor is the trained regression model: it predicts how many
// packets the router will inject during the next window from this
// window's features.
type PacketPredictor interface {
	PredictPackets(features []float64) float64
}

// PredictorFunc adapts a function to PacketPredictor.
type PredictorFunc func(features []float64) float64

// PredictPackets calls the function.
func (f PredictorFunc) PredictPackets(features []float64) float64 { return f(features) }

// DefaultPredictionHeadroom returns the capacity margin applied to the
// Eq. 7 check for a window length. Eq. 7 is a mean inequality; within a
// long window, kernel bursts peak well above the window mean, and a
// mis-provisioned state persists for the whole window — so longer windows
// provision against burst peaks (1.6x at 2000 cycles) while short windows
// track demand tightly (1x at 500, the paper's aggressive max-savings
// deployment).
func DefaultPredictionHeadroom(windowCycles int) float64 {
	h := float64(windowCycles) / 1250
	if h < 1 {
		return 1
	}
	return h
}

// MLPolicy is the proactive §III.D mechanism: predict injections, then
// pick the cheapest state whose link capacity covers them (Eq. 7).
type MLPolicy struct {
	Model    PacketPredictor
	Allow8WL bool
}

// NextState evaluates the model and maps the prediction through Eq. 7
// with PktSz fixed at the 128-bit flit/buffer-slot size (§III.B: "each
// buffer slot is 128 bits"). Using the slot size rather than a windowed
// mean keeps the mapping hardware-trivial and makes the RW500 deployment
// aggressive, as in the paper (max power savings at some throughput
// cost). The capacity margin is always the window-derived default, as
// in OnlinePolicy (see TestOnlinePolicyHeadroom).
func (p MLPolicy) NextState(w WindowInfo) photonic.WLState {
	pred := p.Model.PredictPackets(w.Features)
	h := DefaultPredictionHeadroom(w.WindowCycles)
	return StateForPrediction(pred*h, config.FlitBits, w.WindowCycles, p.Allow8WL)
}

// eq7States is the cheap-to-expensive state order Eq. 7 scans, as a
// fixed array so the per-window policy evaluation never allocates.
var eq7States = [...]photonic.WLState{photonic.WL8, photonic.WL16, photonic.WL32, photonic.WL48, photonic.WL64}

// StateForPrediction implements Eq. 7: the router must be able to drain
// PredictPkt x PktSz bits within the window, so pick the lowest state
// whose serialization rate covers the predicted demand. Negative
// predictions clamp to zero (lowest state).
func StateForPrediction(predictedPackets, meanPacketBits float64, windowCycles int, allow8 bool) photonic.WLState {
	if windowCycles <= 0 {
		panic("core: non-positive window")
	}
	if predictedPackets < 0 {
		predictedPackets = 0
	}
	if meanPacketBits <= 0 {
		meanPacketBits = noc.RequestBits
	}
	required := predictedPackets * meanPacketBits / float64(windowCycles)
	for _, s := range eq7States {
		if s == photonic.WL8 && !allow8 {
			continue
		}
		if s.BitsPerCycle() >= required {
			return s
		}
	}
	return photonic.WL64
}

// RandomPolicy assigns uniformly random states each window; the paper's
// first data-collection pass uses random wavelength states "to avoid
// influencing the ML process by a predefined pattern" (§IV.A). The 8WL
// state is excluded, matching the training protocol.
type RandomPolicy struct {
	RNG *sim.RNG
}

// NextState picks uniformly among WL16..WL64.
func (p RandomPolicy) NextState(WindowInfo) photonic.WLState {
	states := []photonic.WLState{photonic.WL16, photonic.WL32, photonic.WL48, photonic.WL64}
	return states[p.RNG.Intn(len(states))]
}
