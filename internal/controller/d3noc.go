package controller

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/photonic"
)

// D3NOC-style data-driven bandwidth reconfiguration (the "data-driven
// dynamic NoC" contrast point): each router keeps an exponentially
// weighted moving average of its injection demand and provisions the
// cheapest wavelength state whose capacity covers the smoothed demand
// plus a fixed margin. Unlike PROTEUS there is no hysteresis rule pair —
// the estimate itself does the smoothing — and unlike the ML controller
// the "model" is a one-parameter filter learned from the run's own
// history rather than an offline-trained regression.
const (
	// d3nocAlpha is the EWMA smoothing factor (weight on the newest
	// window's demand).
	d3nocAlpha = 0.3
	// d3nocMargin over-provisions the smoothed demand before the
	// capacity scan, absorbing within-window burstiness.
	d3nocMargin = 1.25
)

// d3nocPolicy holds per-router demand estimates in fixed arrays so the
// per-window decision allocates nothing.
type d3nocPolicy struct {
	allow8 bool
	ewma   [config.NumRouters]float64
	seen   [config.NumRouters]bool
}

// NextState updates the router's demand estimate and provisions for it.
func (p *d3nocPolicy) NextState(w core.WindowInfo) photonic.WLState {
	demand := float64(w.InjectedFlits) * config.FlitBits / float64(w.WindowCycles)
	id := w.RouterID
	if !p.seen[id] {
		p.seen[id] = true
		p.ewma[id] = demand
	} else {
		p.ewma[id] = float64(d3nocAlpha*demand) + float64((1-d3nocAlpha)*p.ewma[id])
	}
	required := p.ewma[id] * d3nocMargin
	for _, s := range photonicLadder {
		if s == photonic.WL8 && !p.allow8 {
			continue
		}
		if s.BitsPerCycle() >= required {
			return s
		}
	}
	return photonic.WL64
}

// photonicLadder is the cheap-to-expensive scan order as a fixed array
// (photonic.States allocates a fresh slice per call).
var photonicLadder = [...]photonic.WLState{photonic.WL8, photonic.WL16, photonic.WL32, photonic.WL48, photonic.WL64}

func init() {
	Register(Spec{
		Name:        "d3noc",
		Power:       config.PowerD3NOC,
		Description: "data-driven reconfiguration from a per-router demand EWMA",
		Factory: func(cfg config.Config, _ *models.Artifact) (Controller, error) {
			allow8 := cfg.Allow8WL
			return simple{
				name: "d3noc",
				mint: func(uint64) (core.StatePolicy, error) {
					return &d3nocPolicy{allow8: allow8}, nil
				},
			}, nil
		},
	})
}
