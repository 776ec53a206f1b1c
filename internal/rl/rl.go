// Package rl implements a tabular Q-learning power-scaling policy — the
// reinforcement-learning alternative the paper's related work points at
// ("few works have used machine learning to predict the voltage and
// frequency levels for electrical NoCs using supervised and reinforcement
// learning techniques", §II.C) and this repository provides as an
// extension experiment.
//
// Each reservation-window boundary is a decision epoch. The agent
// observes a discretised congestion state (buffer-occupancy bucket ×
// current wavelength state × L3 flag), picks the next wavelength state
// ε-greedily, and at the following boundary receives a reward that
// trades laser power against congestion:
//
//	reward = -(laser power of action, normalised) - kappa * beta_next
//
// Learning is on-policy across all 17 routers into one shared table
// (routers are statistically exchangeable; the L3 flag separates the one
// that is not), so the agent converges within a single run.
package rl

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/photonic"
	"repro/internal/sim"
)

// Occupancy buckets for state discretisation. Boundaries mirror the
// reactive thresholds' dynamic range.
var betaBuckets = []float64{0.002, 0.01, 0.04, 0.12, 0.30}

// numBetaBuckets is len(betaBuckets)+1.
const numBetaBuckets = 6

// numActions is the five wavelength states.
const numActions = int(photonic.NumStates)

// numStates is beta bucket x current WL x L3 flag.
const numStates = numBetaBuckets * numActions * 2

// Config holds the agent's hyperparameters.
type Config struct {
	// Alpha is the learning rate (0, 1].
	Alpha float64
	// Gamma is the discount factor [0, 1).
	Gamma float64
	// Epsilon is the initial exploration rate; it decays geometrically
	// by EpsilonDecay each decision to EpsilonMin.
	Epsilon, EpsilonDecay, EpsilonMin float64
	// Kappa weighs the congestion penalty against laser power.
	Kappa float64
	// Allow8WL permits the lowest state.
	Allow8WL bool
	// Seed drives exploration.
	Seed uint64
}

// DefaultConfig returns hyperparameters that converge within a few
// thousand windows.
func DefaultConfig() Config {
	return Config{
		Alpha: 0.2, Gamma: 0.8,
		Epsilon: 0.3, EpsilonDecay: 0.999, EpsilonMin: 0.01,
		Kappa: 4, Allow8WL: true, Seed: 1,
	}
}

// Validate reports the first bad hyperparameter.
func (c Config) Validate() error {
	switch {
	case c.Alpha <= 0 || c.Alpha > 1:
		return fmt.Errorf("rl: alpha %v outside (0,1]", c.Alpha)
	case c.Gamma < 0 || c.Gamma >= 1:
		return fmt.Errorf("rl: gamma %v outside [0,1)", c.Gamma)
	case c.Epsilon < 0 || c.Epsilon > 1:
		return fmt.Errorf("rl: epsilon %v outside [0,1]", c.Epsilon)
	case c.EpsilonDecay <= 0 || c.EpsilonDecay > 1:
		return fmt.Errorf("rl: epsilon decay %v outside (0,1]", c.EpsilonDecay)
	case c.EpsilonMin < 0 || c.EpsilonMin > c.Epsilon:
		return fmt.Errorf("rl: epsilon min %v outside [0, epsilon]", c.EpsilonMin)
	case c.Kappa < 0:
		return fmt.Errorf("rl: negative kappa %v", c.Kappa)
	}
	return nil
}

// pending remembers a router's last (state, action) awaiting its reward.
type pending struct {
	state  int
	action int
}

// Agent is the Q-learning policy. It implements core.StatePolicy.
type Agent struct {
	cfg Config
	q   [numStates][numActions]float64
	rng *sim.RNG

	epsilon float64
	prev    map[int]pending

	// Decisions and GreedyDecisions count total and exploitation picks.
	Decisions, GreedyDecisions uint64
}

// NewAgent builds an agent with the given hyperparameters.
func NewAgent(cfg Config) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Agent{
		cfg:     cfg,
		rng:     sim.NewRNG(cfg.Seed),
		epsilon: cfg.Epsilon,
		prev:    make(map[int]pending),
	}, nil
}

// bucket discretises an occupancy fraction.
func bucket(beta float64) int {
	for i, b := range betaBuckets {
		if beta <= b {
			return i
		}
	}
	return numBetaBuckets - 1
}

// encode maps an observation to a table index.
func encode(beta float64, current photonic.WLState, isL3 bool) int {
	s := bucket(beta)*numActions + int(current)
	if isL3 {
		s += numBetaBuckets * numActions
	}
	return s
}

// isL3Router reads the Table III L3 flag out of the feature vector.
func isL3Router(features []float64) bool {
	return len(features) > 0 && features[0] >= 0.5
}

// reward scores the previous action now that its consequences (betaNext)
// are visible.
func (a *Agent) reward(action int, betaNext float64) float64 {
	powerCost := photonic.WLState(action).LaserPowerW() / photonic.WL64.LaserPowerW()
	return -powerCost - float64(a.cfg.Kappa*betaNext)
}

// NextState closes the previous decision's learning loop and picks the
// next wavelength state.
func (a *Agent) NextState(w core.WindowInfo) photonic.WLState {
	sNow := encode(w.BetaTotal, w.Current, isL3Router(w.Features))

	if p, ok := a.prev[w.RouterID]; ok {
		r := a.reward(p.action, w.BetaTotal)
		best := a.q[sNow][0]
		for _, v := range a.q[sNow][1:] {
			if v > best {
				best = v
			}
		}
		a.q[p.state][p.action] += float64(a.cfg.Alpha * (r + float64(a.cfg.Gamma*best) - a.q[p.state][p.action]))
	}

	action := a.chooseAction(sNow)
	a.prev[w.RouterID] = pending{state: sNow, action: action}
	return photonic.WLState(action).Clamp(a.cfg.Allow8WL)
}

// chooseAction is ε-greedy with decaying ε.
func (a *Agent) chooseAction(state int) int {
	a.Decisions++
	if a.epsilon > a.cfg.EpsilonMin {
		a.epsilon *= a.cfg.EpsilonDecay
	}
	if a.rng.Bernoulli(a.epsilon) {
		lo := 0
		if !a.cfg.Allow8WL {
			lo = 1
		}
		return lo + a.rng.Intn(numActions-lo)
	}
	a.GreedyDecisions++
	best, bestV := 0, a.q[state][0]
	if !a.cfg.Allow8WL {
		best, bestV = 1, a.q[state][1]
	}
	for act := best + 1; act < numActions; act++ {
		if a.q[state][act] > bestV {
			best, bestV = act, a.q[state][act]
		}
	}
	return best
}

// Q returns the learned value of (betaBucketedState, action) for
// inspection.
func (a *Agent) Q(beta float64, current photonic.WLState, isL3 bool, action photonic.WLState) float64 {
	return a.q[encode(beta, current, isL3)][int(action)]
}

// Epsilon returns the current exploration rate.
func (a *Agent) Epsilon() float64 { return a.epsilon }

var _ core.StatePolicy = (*Agent)(nil)
