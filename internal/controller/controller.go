// Package controller unifies every wavelength-state decision path
// behind one abstraction: a Controller is built from a configuration
// plus an optional trained model artifact, declares its capabilities,
// and mints the core.StatePolicy a simulation installs. The named
// factory registry makes policies addressable from the CLIs and the
// pearld API, and gives the experiment and server layers one seam
// instead of the previous predictor-parameter / SetStatePolicy /
// extensions ad-hoc trio.
package controller

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/models"
)

// Capabilities declares what a controller supports; the experiment and
// serving layers gate features on these instead of type assertions.
type Capabilities struct {
	// NeedsModel controllers require a trained model artifact at
	// construction (the offline-ML path).
	NeedsModel bool
	// OnlineLearning controllers mutate internal estimator state during
	// the run (and so allocate in steady state).
	OnlineLearning bool
}

// Controller mints wavelength-state policies for one configuration.
type Controller interface {
	// Name is the registered controller name (e.g. "reactive", "ml").
	Name() string
	// Capabilities reports the controller's declared contract.
	Capabilities() Capabilities
	// Policy returns a fresh state policy for one run. Stateful
	// controllers must return an independent instance per call — the
	// runs of a seed fan call Policy concurrently, one call each — and
	// deterministic controllers must yield the same decisions for the
	// same seed. Stateless controllers ignore the seed.
	Policy(seed uint64) (core.StatePolicy, error)
}

// Spec registers one controller family: its name, the config.PowerPolicy
// it serves, its capabilities, and the factory constructing a Controller
// from a configuration and an optional model artifact.
type Spec struct {
	Name        string
	Power       config.PowerPolicy
	Caps        Capabilities
	Description string
	Factory     func(cfg config.Config, art *models.Artifact) (Controller, error)
}

var (
	regMu   sync.RWMutex
	byName  = map[string]Spec{}
	byPower = map[config.PowerPolicy]Spec{}
)

// Register adds a controller family to the registry. Registering a
// duplicate name or power policy panics: the registry is assembled from
// package init functions, so a collision is a programming error.
func Register(s Spec) {
	regMu.Lock()
	defer regMu.Unlock()
	if s.Name == "" || s.Factory == nil {
		panic("controller: Register with empty name or nil factory")
	}
	if _, dup := byName[s.Name]; dup {
		panic("controller: duplicate controller name " + s.Name)
	}
	if _, dup := byPower[s.Power]; dup {
		panic("controller: duplicate controller for power policy " + s.Power.String())
	}
	byName[s.Name] = s
	byPower[s.Power] = s
}

// Names lists the registered controller names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Lookup resolves a controller name to its Spec.
func Lookup(name string) (Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := byName[name]
	return s, ok
}

// ForPower resolves a configuration's power policy to its Spec.
func ForPower(p config.PowerPolicy) (Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := byPower[p]
	return s, ok
}

// Specs returns every registered Spec in name order (for the policy
// matrix and conformance batteries).
func Specs() []Spec {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Spec, 0, len(byName))
	for _, s := range byName {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// New builds the controller a configuration calls for. art may be nil
// except for controllers that declare NeedsModel; a model-needing
// controller with a nil artifact fails here, before any simulation
// state is built.
func New(cfg config.Config, art *models.Artifact) (Controller, error) {
	spec, ok := ForPower(cfg.Power)
	if !ok {
		return nil, fmt.Errorf("controller: no controller registered for power policy %s", cfg.Power)
	}
	if spec.Caps.NeedsModel && art == nil {
		return nil, fmt.Errorf("controller: %s needs a trained model artifact (train one with pearltrain)", cfg.Name())
	}
	return spec.Factory(cfg, art)
}
