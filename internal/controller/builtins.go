package controller

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mlkit"
	"repro/internal/models"
	"repro/internal/photonic"
	"repro/internal/rl"
)

// simple is the common Controller carrier: a name, declared
// capabilities, and a policy mint.
type simple struct {
	name string
	caps Capabilities
	mint func(seed uint64) (core.StatePolicy, error)
}

func (c simple) Name() string               { return c.name }
func (c simple) Capabilities() Capabilities { return c.caps }
func (c simple) Policy(seed uint64) (core.StatePolicy, error) {
	return c.mint(seed)
}

// onlineForgetting is the RLS forgetting factor for the online
// controller (0.995 tracks workload drift well at RW500; see the
// extension experiments).
const onlineForgetting = 0.995

// ridgePredictor wraps an artifact's ridge model with per-instance
// scratch so steady-state prediction allocates nothing. Each Policy()
// call mints a fresh instance, so concurrent runs never share the scratch.
type ridgePredictor struct {
	ridge   *mlkit.Ridge
	scratch [core.FeatureCount]float64
}

// PredictPackets evaluates the ridge model; bit-identical to
// Ridge.Predict (see mlkit.PredictInto).
func (p *ridgePredictor) PredictPackets(features []float64) float64 {
	return p.ridge.PredictInto(features, p.scratch[:])
}

func init() {
	Register(Spec{
		Name:        "static",
		Power:       config.PowerStatic,
		Description: "fixed wavelength state (PEARL-Dyn / PEARL-FCFS baselines)",
		Factory: func(cfg config.Config, _ *models.Artifact) (Controller, error) {
			s, err := photonic.StateForWavelengths(cfg.StaticWavelengths)
			if err != nil {
				return nil, err
			}
			pol := core.StaticPolicy{State: s}
			return simple{
				name: "static",
				mint: func(uint64) (core.StatePolicy, error) { return pol, nil },
			}, nil
		},
	})

	Register(Spec{
		Name:        "reactive",
		Power:       config.PowerReactive,
		Description: "Algorithm 1 occupancy-threshold scaling",
		Factory: func(cfg config.Config, _ *models.Artifact) (Controller, error) {
			pol := core.ReactivePolicy{Thresholds: cfg.Thresholds, Allow8WL: cfg.Allow8WL}
			return simple{
				name: "reactive",
				mint: func(uint64) (core.StatePolicy, error) { return pol, nil },
			}, nil
		},
	})

	Register(Spec{
		Name:        "ml",
		Power:       config.PowerML,
		Caps:        Capabilities{NeedsModel: true},
		Description: "offline-trained ridge prediction mapped through Eq. 7 (§III.D)",
		Factory: func(cfg config.Config, art *models.Artifact) (Controller, error) {
			allow8 := cfg.Allow8WL
			ridge := art.Ridge()
			return simple{
				name: "ml",
				caps: Capabilities{NeedsModel: true},
				mint: func(uint64) (core.StatePolicy, error) {
					// Fresh predictor (and scratch) per mint keeps runs
					// independent; the artifact itself is immutable.
					return core.MLPolicy{Model: &ridgePredictor{ridge: ridge}, Allow8WL: allow8}, nil
				},
			}, nil
		},
	})

	Register(Spec{
		Name:        "online",
		Power:       config.PowerOnline,
		Caps:        Capabilities{OnlineLearning: true},
		Description: "cold-start recursive least squares, updated every window",
		Factory: func(cfg config.Config, _ *models.Artifact) (Controller, error) {
			allow8 := cfg.Allow8WL
			return simple{
				name: "online",
				caps: Capabilities{OnlineLearning: true},
				mint: func(uint64) (core.StatePolicy, error) {
					return core.NewOnlinePolicy(onlineForgetting, allow8)
				},
			}, nil
		},
	})

	Register(Spec{
		Name:        "rl",
		Power:       config.PowerRL,
		Caps:        Capabilities{OnlineLearning: true},
		Description: "tabular Q-learning over congestion state x wavelength state",
		Factory: func(cfg config.Config, _ *models.Artifact) (Controller, error) {
			allow8 := cfg.Allow8WL
			return simple{
				name: "rl",
				caps: Capabilities{OnlineLearning: true},
				mint: func(seed uint64) (core.StatePolicy, error) {
					rc := rl.DefaultConfig()
					rc.Allow8WL = allow8
					if seed != 0 {
						rc.Seed = seed
					}
					return rl.NewAgent(rc)
				},
			}, nil
		},
	})
}
