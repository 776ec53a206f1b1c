package controller

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/photonic"
)

// PROTEUS-style rule-based loss-aware laser-power/performance
// co-management (Zhou & Kodi, "PROBE/PROTEUS" line of work): each router
// watches its injection demand against the current state's link
// capacity. Demand pressing toward the capacity ceiling risks buffer
// loss, so the router steps its laser power up immediately; sustained
// headroom lets it step down one state, but only once the next-lower
// state would still cover the observed demand with margin. The rules are
// deterministic, router-local, and hold no model — the classic
// hand-tuned contrast series for the paper's learned controllers.
const (
	// proteusHighFrac: demand above this fraction of the current state's
	// capacity triggers an immediate up-step (performance/loss side).
	proteusHighFrac = 0.75
	// proteusLowFrac: a down-step requires demand below this fraction of
	// the *lower* state's capacity (loss-aware margin).
	proteusLowFrac = 0.5
	// proteusHold: consecutive low-demand windows required before
	// stepping down (hysteresis against oscillation).
	proteusHold = 2
)

// proteusPolicy holds per-router hysteresis state in fixed arrays so the
// per-window decision allocates nothing.
type proteusPolicy struct {
	allow8 bool
	low    [config.NumRouters]int32
}

// NextState applies the up-fast / down-slow rules.
func (p *proteusPolicy) NextState(w core.WindowInfo) photonic.WLState {
	demand := float64(w.InjectedFlits) * config.FlitBits / float64(w.WindowCycles)
	cur := w.Current
	id := w.RouterID
	if demand > proteusHighFrac*cur.BitsPerCycle() {
		p.low[id] = 0
		return cur.Next()
	}
	down := cur.Prev(p.allow8)
	if down != cur && demand < proteusLowFrac*down.BitsPerCycle() {
		p.low[id]++
		if p.low[id] >= proteusHold {
			p.low[id] = 0
			return down
		}
		return cur
	}
	p.low[id] = 0
	return cur
}

func init() {
	Register(Spec{
		Name:        "proteus",
		Power:       config.PowerProteus,
		Description: "rule-based loss-aware laser power/performance co-management",
		Factory: func(cfg config.Config, _ *models.Artifact) (Controller, error) {
			allow8 := cfg.Allow8WL
			return simple{
				name: "proteus",
				mint: func(uint64) (core.StatePolicy, error) {
					// Fresh hysteresis state per run; the rules are
					// deterministic.
					return &proteusPolicy{allow8: allow8}, nil
				},
			}, nil
		},
	})
}
