package server

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/mlkit"
	"repro/internal/models"
)

// Online canary retraining: completed PowerML runs feed their
// predicted-vs-actual window samples into a recursive-least-squares
// estimator, and an operator-triggered refinement step packages the
// current weights as a new content-hashed artifact version. The new
// version is always published under "<alias>-canary"; the serving
// alias itself moves only when the candidate beats the incumbent on a
// held-out sample set — a canary gate, so a drifting estimator can
// never silently degrade the hosted model. Because finalize pins each
// job's cache key to the resolved artifact hash, a promotion makes
// later submissions cache-miss and re-simulate under the new model.

const (
	// canaryForgetting matches the online-policy RLS: slight exponential
	// forgetting so the estimator tracks drifting workloads.
	canaryForgetting = 0.995
	// canaryDelta initialises the RLS inverse covariance (weak prior).
	canaryDelta = 10
	// canaryHoldoutCap bounds the held-out ring; past it the oldest
	// sample is overwritten, keeping the gate's yardstick recent.
	canaryHoldoutCap = 256
	// Defaults for Options.CanaryMinSamples / CanaryHoldoutEvery.
	defaultCanaryMinSamples   = 64
	defaultCanaryHoldoutEvery = 8
)

// holdoutSample is one held-back (features, next-window label) example.
type holdoutSample struct {
	feats [core.FeatureCount]float64
	label float64
}

// canary owns the serving-time learning loop for one hosted alias.
type canary struct {
	reg      *models.Registry
	metrics  *metrics
	alias    string
	window   int    // reservation window the alias serves
	ctrlName string // controller family the updates are attributed to

	minSamples   int
	holdoutEvery int

	mu          sync.Mutex
	rls         *mlkit.RLS
	seen        uint64
	updates     uint64
	holdout     []holdoutSample
	holdoutNext int
}

// newCanary resolves the alias eagerly — a daemon never boots with a
// canary pointed at a model it cannot serve.
func newCanary(reg *models.Registry, alias string, minSamples, holdoutEvery int, m *metrics) (*canary, error) {
	art, ok := reg.Resolve(alias)
	if !ok {
		return nil, fmt.Errorf("canary alias %q not in the model registry", alias)
	}
	if minSamples <= 0 {
		minSamples = defaultCanaryMinSamples
	}
	if holdoutEvery <= 1 {
		holdoutEvery = defaultCanaryHoldoutEvery
	}
	rls, err := mlkit.NewRLS(core.FeatureCount, canaryForgetting, canaryDelta)
	if err != nil {
		return nil, err
	}
	ctrlName := "ml"
	if spec, ok := controller.ForPower(config.PowerML); ok {
		ctrlName = spec.Name
	}
	return &canary{
		reg:          reg,
		metrics:      m,
		alias:        alias,
		window:       art.Window,
		ctrlName:     ctrlName,
		minSamples:   minSamples,
		holdoutEvery: holdoutEvery,
		rls:          rls,
	}, nil
}

// attach returns a per-job window-sample observer for specs the canary
// learns from — locally executed PowerML runs at the alias's window —
// and nil for everything else. The closure pairs each window's injected
// count with the PREVIOUS window's features, mirroring the offline
// trainer's label construction (the model predicts the next window).
func (c *canary) attach(spec jobSpec) func(routerID int, feats []float64, injected int64) {
	if c == nil || spec.Backend != BackendPEARL ||
		spec.Config.Power != config.PowerML || spec.Config.ReservationWindow != c.window {
		return nil
	}
	prev := make(map[int][]float64, config.NumRouters)
	return func(routerID int, feats []float64, injected int64) {
		if pf, ok := prev[routerID]; ok {
			c.observe(pf, float64(injected))
		}
		buf := prev[routerID]
		if buf == nil {
			buf = make([]float64, len(feats))
			prev[routerID] = buf
		}
		copy(buf, feats)
	}
}

// observe folds one (features, next-window label) example in: every
// holdoutEvery-th sample is held back for the promotion gate and never
// trains the estimator; the rest update the RLS weights.
func (c *canary) observe(feats []float64, label float64) {
	c.mu.Lock()
	c.seen++
	if c.seen%uint64(c.holdoutEvery) == 0 {
		var hs holdoutSample
		copy(hs.feats[:], feats)
		hs.label = label
		if len(c.holdout) < canaryHoldoutCap {
			c.holdout = append(c.holdout, hs)
		} else {
			c.holdout[c.holdoutNext] = hs
			c.holdoutNext = (c.holdoutNext + 1) % canaryHoldoutCap
		}
		c.mu.Unlock()
		c.metrics.canaryObserved(c.ctrlName, 1, 0)
		return
	}
	c.rls.Update(feats, label)
	c.updates++
	c.mu.Unlock()
	c.metrics.canaryObserved(c.ctrlName, 1, 1)
}

// CanaryStatus is the POST /v1/admin/canary/refine response: the
// refinement's inputs, both artifacts' holdout errors, and whether the
// alias moved.
type CanaryStatus struct {
	Alias       string `json:"alias"`
	Window      int    `json:"window"`
	Updates     uint64 `json:"updates"`
	HoldoutSize int    `json:"holdout_size"`
	// CandidateHash is the freshly published version (always served
	// under "<alias>-canary").
	CandidateHash string  `json:"candidate_hash"`
	CandidateErr  float64 `json:"candidate_err"`
	CurrentErr    float64 `json:"current_err"`
	// Promoted reports whether the alias now serves the candidate
	// (strict holdout improvement); AliasHash is the alias's content
	// hash after the refinement either way.
	Promoted  bool   `json:"promoted"`
	AliasHash string `json:"alias_hash"`
}

// refine packages the current RLS weights as a candidate artifact,
// scores candidate and incumbent on the holdout, publishes the
// candidate under "<alias>-canary", and promotes the alias only on
// strict improvement. Learning continues across refinements.
func (c *canary) refine() (CanaryStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.updates < uint64(c.minSamples) || len(c.holdout) == 0 {
		return CanaryStatus{}, fmt.Errorf(
			"canary needs at least %d update samples and a non-empty holdout (have %d updates, %d held out); run more PowerML jobs first",
			c.minSamples, c.updates, len(c.holdout))
	}
	incumbent, ok := c.reg.Resolve(c.alias)
	if !ok {
		return CanaryStatus{}, fmt.Errorf("canary alias %q vanished from the registry", c.alias)
	}

	// The RLS learns on raw features with a trailing bias term; package
	// that as a ridge artifact with an identity scaler so the serving
	// path computes the exact same dot product.
	w := c.rls.Weights()
	params := mlkit.RidgeParams{
		Mean:    make([]float64, core.FeatureCount),
		Std:     make([]float64, core.FeatureCount),
		Weights: w[:core.FeatureCount],
		Bias:    w[core.FeatureCount],
	}
	for i := range params.Std {
		params.Std[i] = 1
	}
	candErr := c.holdoutRMSE(func(feats []float64) float64 { return mlkit.Dot(feats, params.Weights) + params.Bias })
	currErr := c.holdoutRMSE(incumbent.PredictPackets)
	candidate, err := models.New(c.window, 0, candErr, params, models.Meta{})
	if err != nil {
		return CanaryStatus{}, fmt.Errorf("canary candidate: %w", err)
	}
	if err := c.reg.Add(c.alias+"-canary", candidate); err != nil {
		return CanaryStatus{}, fmt.Errorf("publishing canary candidate: %w", err)
	}

	st := CanaryStatus{
		Alias:         c.alias,
		Window:        c.window,
		Updates:       c.updates,
		HoldoutSize:   len(c.holdout),
		CandidateHash: candidate.Hash,
		CandidateErr:  candErr,
		CurrentErr:    currErr,
		AliasHash:     incumbent.Hash,
	}
	if candErr < currErr {
		if err := c.reg.Add(c.alias, candidate); err != nil {
			return CanaryStatus{}, fmt.Errorf("promoting canary candidate: %w", err)
		}
		st.Promoted = true
		st.AliasHash = candidate.Hash
	}
	c.metrics.canaryRefined(c.ctrlName, st.Promoted, candidate.Hash)
	return st, nil
}

// holdoutRMSE scores a predictor over the held-out ring; callers hold
// c.mu.
func (c *canary) holdoutRMSE(predict func([]float64) float64) float64 {
	var sum float64
	for i := range c.holdout {
		d := predict(c.holdout[i].feats[:]) - c.holdout[i].label
		sum += float64(d * d)
	}
	return math.Sqrt(sum / float64(len(c.holdout)))
}
