package mlkit

import (
	"errors"
	"fmt"
	"math"
)

// Dataset accumulates (feature-vector, label) examples, e.g. one per
// router per reservation window during data collection.
type Dataset struct {
	features int
	rows     [][]float64
	labels   []float64
}

// NewDataset returns an empty dataset expecting the given feature width.
func NewDataset(features int) *Dataset {
	if features <= 0 {
		panic("mlkit: dataset with non-positive feature count")
	}
	return &Dataset{features: features}
}

// Add appends one example. The feature slice is copied.
func (d *Dataset) Add(features []float64, label float64) {
	if len(features) != d.features {
		panic(fmt.Sprintf("mlkit: example with %d features, want %d", len(features), d.features))
	}
	row := make([]float64, len(features))
	copy(row, features)
	d.rows = append(d.rows, row)
	d.labels = append(d.labels, label)
}

// Merge appends every example from other, which must have the same width.
func (d *Dataset) Merge(other *Dataset) {
	if other.features != d.features {
		panic(fmt.Sprintf("mlkit: merging %d-feature dataset into %d-feature dataset",
			other.features, d.features))
	}
	d.rows = append(d.rows, other.rows...)
	d.labels = append(d.labels, other.labels...)
}

// Len returns the example count.
func (d *Dataset) Len() int { return len(d.rows) }

// Features returns the feature width.
func (d *Dataset) Features() int { return d.features }

// Design returns the examples as a design matrix and label vector.
func (d *Dataset) Design() (*Matrix, []float64) {
	if len(d.rows) == 0 {
		panic("mlkit: Design on empty dataset")
	}
	y := make([]float64, len(d.labels))
	copy(y, d.labels)
	return FromRows(d.rows), y
}

// Labels returns a copy of the label vector.
func (d *Dataset) Labels() []float64 {
	y := make([]float64, len(d.labels))
	copy(y, d.labels)
	return y
}

// Select returns a new dataset keeping only the listed feature columns,
// used by the feature-ablation experiments (§IV.B tried fewer features).
func (d *Dataset) Select(cols []int) *Dataset {
	if len(cols) == 0 {
		panic("mlkit: Select with no columns")
	}
	for _, c := range cols {
		if c < 0 || c >= d.features {
			panic(fmt.Sprintf("mlkit: Select column %d out of %d", c, d.features))
		}
	}
	out := NewDataset(len(cols))
	for i, row := range d.rows {
		sub := make([]float64, len(cols))
		for j, c := range cols {
			sub[j] = row[c]
		}
		out.rows = append(out.rows, sub)
		out.labels = append(out.labels, d.labels[i])
	}
	return out
}

// TuneLambda fits one ridge model per candidate λ on the training set and
// returns the model scoring the best NRMSE-style fit on the validation
// set, along with its λ and score. This is the paper's validation
// protocol for the regularisation coefficient (§IV.A). What does not
// depend on λ is computed once: the training design's scaler, Gram
// matrix and right-hand side, and the standardised validation matrix.
// The models share the scaler; each result is bit-identical to fitting
// the candidate on its own and predicting with PredictAll.
func TuneLambda(train, val *Dataset, lambdas []float64) (*Ridge, float64, float64, error) {
	if len(lambdas) == 0 {
		return nil, 0, 0, errors.New("mlkit: no lambda candidates")
	}
	if train.Len() == 0 || val.Len() == 0 {
		return nil, 0, 0, errors.New("mlkit: empty train or validation set")
	}
	xt, yt := train.Design()
	xv, yv := val.Design()
	var (
		design *ridgeDesign
		xvs    *Matrix // xv standardised by the training scaler
	)
	var best *Ridge
	bestLambda := 0.0
	bestScore := math.Inf(-1)
	for _, l := range lambdas {
		if l < 0 {
			return nil, 0, 0, errNegativeLambda
		}
		if design == nil {
			var err error
			if design, err = newRidgeDesign(xt, yt); err != nil {
				return nil, 0, 0, err
			}
			xvs = design.scaler.Transform(xv)
		}
		m := &Ridge{Lambda: l}
		if err := m.fitDesign(design); err != nil {
			return nil, 0, 0, err
		}
		score := fitScore(addScalar(xvs.MulVec(m.weights), m.bias), yv)
		if score > bestScore {
			best, bestLambda, bestScore = m, l, score
		}
	}
	return best, bestLambda, bestScore, nil
}

// fitScore is the NRMSE-style score used throughout: 1 - RMSE/stddev.
func fitScore(pred, target []float64) float64 {
	var mean float64
	for _, t := range target {
		mean += t
	}
	mean /= float64(len(target))
	var ssRes, ssTot float64
	for i := range target {
		d := pred[i] - target[i]
		ssRes += float64(d * d)
		v := target[i] - mean
		ssTot += float64(v * v)
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - math.Sqrt(ssRes/ssTot)
}

// Score exposes the NRMSE-style fit score for external callers.
func Score(pred, target []float64) float64 {
	if len(pred) != len(target) || len(pred) == 0 {
		panic("mlkit: Score over mismatched or empty slices")
	}
	return fitScore(pred, target)
}

// DefaultLambdas is the sweep used when tuning the regulariser. The
// range is capped at 10: heavier shrinkage can eke out marginally better
// NRMSE on skewed labels but biases idle-window predictions upward,
// which at deployment keeps near-idle routers out of the low-power
// states (the paper reintroduced the 8WL state precisely to harvest
// those windows).
func DefaultLambdas() []float64 {
	return []float64{0.01, 0.1, 1, 3, 10}
}
