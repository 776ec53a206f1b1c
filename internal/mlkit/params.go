package mlkit

import "errors"

// RidgeParams is the serialisable form of a fitted ridge model: the
// standardisation statistics and the weight vector — exactly what the
// paper's 0.018 mm^2 on-chip ML unit would hold in registers.
type RidgeParams struct {
	Lambda  float64   `json:"lambda"`
	Mean    []float64 `json:"mean"`
	Std     []float64 `json:"std"`
	Weights []float64 `json:"weights"`
	Bias    float64   `json:"bias"`
}

// Params exports the fitted model; it panics before Fit.
func (r *Ridge) Params() RidgeParams {
	if !r.Fitted() {
		panic("mlkit: Params before Fit")
	}
	p := RidgeParams{Lambda: r.Lambda, Bias: r.bias}
	p.Mean = append(p.Mean, r.scaler.Mean...)
	p.Std = append(p.Std, r.scaler.Std...)
	p.Weights = append(p.Weights, r.weights...)
	return p
}

// RidgeFromParams reconstructs a deployable model.
func RidgeFromParams(p RidgeParams) (*Ridge, error) {
	if len(p.Weights) == 0 {
		return nil, errors.New("mlkit: params without weights")
	}
	if len(p.Mean) != len(p.Weights) || len(p.Std) != len(p.Weights) {
		return nil, errors.New("mlkit: params with inconsistent dimensions")
	}
	for _, s := range p.Std {
		if s <= 0 {
			return nil, errors.New("mlkit: params with non-positive std")
		}
	}
	r := &Ridge{Lambda: p.Lambda, bias: p.Bias}
	r.scaler = &Scaler{Mean: append([]float64(nil), p.Mean...), Std: append([]float64(nil), p.Std...)}
	r.weights = append([]float64(nil), p.Weights...)
	return r, nil
}
