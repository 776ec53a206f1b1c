// Package models is the serving side of the ML pipeline: a trained
// ridge predictor packaged as a versioned, content-hashed artifact that
// can leave the training process — written by pearltrain, loaded by
// pearld's model registry, and uploaded over HTTP. The artifact is the
// contract between training and serving: everything the §III.D on-chip
// ML unit would hold (standardisation statistics, weight vector, the
// reservation window it was fitted for) plus the feature-schema version
// and a SHA-256 self-hash so a stale or corrupted model is rejected at
// load time, never at predict time.
package models

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/features"
	"repro/internal/mlkit"
)

// SchemaVersion is the current artifact format version. Bump it when
// the serialised shape changes incompatibly; Load rejects artifacts
// from other versions with an explicit skew error.
const SchemaVersion = 1

// Meta is free-form training provenance. It travels with the artifact
// but is deliberately excluded from the content hash: two trainings
// that produce identical weights are the same model no matter when or
// from how many pairs they were fitted.
type Meta struct {
	// Seed is the experiment seed the training run used.
	Seed uint64 `json:"seed,omitempty"`
	// TrainPairs / ValPairs count the benchmark pairs in each set.
	TrainPairs int `json:"train_pairs,omitempty"`
	ValPairs   int `json:"val_pairs,omitempty"`
	// TrainedAt is an RFC 3339 timestamp, informational only.
	TrainedAt string `json:"trained_at,omitempty"`
}

// Artifact is one deployable trained model. Construct with New (or
// Load); a zero Artifact is not usable. The embedded ridge is rebuilt
// eagerly at construction, so PredictPackets can never fail on a
// loaded artifact.
type Artifact struct {
	// SchemaVersion is the artifact format version (see SchemaVersion).
	SchemaVersion int `json:"schema_version"`
	// Window is the reservation window (cycles) the model was trained
	// for; serving a different window is a validation error.
	Window int `json:"window"`
	// Lambda is the ridge regularisation picked on validation.
	Lambda float64 `json:"lambda"`
	// ValScore is the NRMSE-style validation score (§IV.C).
	ValScore float64 `json:"val_score"`
	// FeatureCount and FeatureSchema pin the Table III feature vector
	// the weights were fitted against.
	FeatureCount  int `json:"feature_count"`
	FeatureSchema int `json:"feature_schema"`
	// Params is the fitted regression (scaler + weights + bias).
	Params mlkit.RidgeParams `json:"params"`
	// Meta is training provenance, excluded from Hash.
	Meta Meta `json:"meta,omitempty"`
	// Hash is the hex SHA-256 content hash over the identity fields
	// (everything except Meta and Hash itself).
	Hash string `json:"hash"`

	ridge *mlkit.Ridge
}

// New assembles and validates an artifact from a fitted model's
// parameters, computing its content hash. The weight vector must match
// the current feature schema.
func New(window int, lambda, valScore float64, params mlkit.RidgeParams, meta Meta) (*Artifact, error) {
	a := &Artifact{
		SchemaVersion: SchemaVersion,
		Window:        window,
		Lambda:        lambda,
		ValScore:      valScore,
		FeatureCount:  len(params.Weights),
		FeatureSchema: features.SchemaVersion,
		Params:        params,
		Meta:          meta,
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	a.Hash = a.contentHash()
	return a, nil
}

// validate checks the identity fields and rebuilds the ridge; it is
// the single gate both New and Load pass through.
func (a *Artifact) validate() error {
	if a.Window <= 0 {
		return fmt.Errorf("models: artifact with invalid window %d", a.Window)
	}
	if a.FeatureSchema != features.SchemaVersion {
		return fmt.Errorf("models: artifact uses feature schema v%d, this build speaks v%d",
			a.FeatureSchema, features.SchemaVersion)
	}
	if a.FeatureCount != features.Count {
		return fmt.Errorf("models: artifact has %d features, feature schema v%d defines %d",
			a.FeatureCount, features.SchemaVersion, features.Count)
	}
	if len(a.Params.Weights) != a.FeatureCount {
		return fmt.Errorf("models: artifact declares %d features but carries %d weights",
			a.FeatureCount, len(a.Params.Weights))
	}
	ridge, err := mlkit.RidgeFromParams(a.Params)
	if err != nil {
		return fmt.Errorf("models: artifact params: %w", err)
	}
	a.ridge = ridge
	return nil
}

// contentHash digests the identity fields in a fixed line-oriented
// order with full float precision (the same convention as
// config.AppendCanonical). Meta and Hash are excluded.
func (a *Artifact) contentHash() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema_version=%d\n", a.SchemaVersion)
	fmt.Fprintf(&b, "window=%d\n", a.Window)
	fmt.Fprintf(&b, "lambda=%x\n", a.Lambda)
	fmt.Fprintf(&b, "val_score=%x\n", a.ValScore)
	fmt.Fprintf(&b, "feature_count=%d\n", a.FeatureCount)
	fmt.Fprintf(&b, "feature_schema=%d\n", a.FeatureSchema)
	fmt.Fprintf(&b, "params_lambda=%x\nparams_bias=%x\n", a.Params.Lambda, a.Params.Bias)
	writeFloats := func(name string, vals []float64) {
		fmt.Fprintf(&b, "%s=", name)
		for i, v := range vals {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%x", v)
		}
		b.WriteByte('\n')
	}
	writeFloats("mean", a.Params.Mean)
	writeFloats("std", a.Params.Std)
	writeFloats("weights", a.Params.Weights)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// PredictPackets implements core.PacketPredictor: the expected
// next-window injected packets for one router's feature vector.
func (a *Artifact) PredictPackets(feats []float64) float64 {
	return a.ridge.Predict(feats)
}

// Ridge exposes the reconstructed regression for bulk evaluation
// (experiments.Evaluate's PredictAll over a test design matrix).
func (a *Artifact) Ridge() *mlkit.Ridge { return a.ridge }

// Save writes the artifact as indented JSON.
func (a *Artifact) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(a)
}

// SaveFile writes the artifact to path via a same-directory temp file
// and rename, so readers never observe a torn artifact.
func (a *Artifact) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dirOf(path), ".artifact-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

func dirOf(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return "."
}

// legacyModel is the pre-registry pearltrain JSON shape (a flat
// {window, lambda, val_score, params} object with no versioning or
// hash). Load migrates it transparently.
type legacyModel struct {
	Window   int               `json:"window"`
	Lambda   float64           `json:"lambda"`
	ValScore float64           `json:"val_score"`
	Params   mlkit.RidgeParams `json:"params"`
}

// Load reads an artifact, accepting both the current format and the
// legacy pearltrain JSON. Every failure mode — malformed JSON, schema
// version skew, dimension mismatch, content-hash mismatch — is a
// wrapped error here, so a successfully loaded artifact can always
// predict.
func Load(r io.Reader) (*Artifact, error) {
	raw, err := io.ReadAll(io.LimitReader(r, maxArtifactBytes+1))
	if err != nil {
		return nil, fmt.Errorf("models: reading artifact: %w", err)
	}
	if len(raw) > maxArtifactBytes {
		return nil, fmt.Errorf("models: artifact exceeds %d bytes", maxArtifactBytes)
	}
	var a Artifact
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("models: decoding artifact: %w", err)
	}
	if a.SchemaVersion == 0 && a.Hash == "" {
		// Legacy pearltrain model: same field subset, no version, no
		// hash. Rebuild as a current artifact (New recomputes the hash).
		var lm legacyModel
		if err := json.Unmarshal(raw, &lm); err != nil {
			return nil, fmt.Errorf("models: decoding legacy model: %w", err)
		}
		art, err := New(lm.Window, lm.Lambda, lm.ValScore, lm.Params, Meta{})
		if err != nil {
			return nil, fmt.Errorf("models: migrating legacy model: %w", err)
		}
		return art, nil
	}
	if a.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("models: artifact schema v%d, this build speaks v%d",
			a.SchemaVersion, SchemaVersion)
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	if got := a.contentHash(); got != a.Hash {
		return nil, fmt.Errorf("models: artifact content hash mismatch: file says %s, content is %s",
			shortHash(a.Hash), shortHash(got))
	}
	return &a, nil
}

// maxArtifactBytes bounds one artifact (a 30-feature ridge model is a
// few KiB; 1 MiB leaves two orders of magnitude headroom).
const maxArtifactBytes = 1 << 20

// LoadFile reads an artifact from disk.
func LoadFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	if h == "" {
		return "(empty)"
	}
	return h
}
