package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/models"
)

// Spec is one run's identity: a Point and the seed it runs under. The
// run lengths are the point's own Config.WarmupCycles and
// MeasureCycles. It is the one place that knows which fields each
// backend reads: Normalize folds the fields a backend ignores into one
// value, Key hashes the normalized spec, Options and Bind turn it into
// what Run needs. pearld's jobs, its batch points, `pearlbench -sweep`
// and the Suite all describe their runs with it, which is what makes
// their cache keys agree.
type Spec struct {
	Point
	// Seed drives all randomness; 0 means the paper seed 2018.
	Seed uint64
}

// paperSeed is the seed a zero Spec.Seed or Options.Seed means.
const paperSeed = 2018

// withPaperSeed returns opts with a zero Seed replaced by paperSeed.
// Every entry point that derives seeds from Options (Run, Train,
// CollectDataset, NewSuite) calls it first, so a zero seed runs what
// its Spec key records.
func (o Options) withPaperSeed() Options {
	if o.Seed == 0 {
		o.Seed = paperSeed
	}
	return o
}

// KeyLen is the length of a Key: the first 16 bytes of a SHA-256 in
// lowercase hex.
const KeyLen = 32

// Normalize fills the defaults and folds every field the spec's backend
// never reads into one value, so requests that run identically share a
// key: an empty backend means pearl and seed 0 means 2018; the photonic
// network has no link scale, so pearl carries 1; the electrical mesh
// reads only the buffer slots and run lengths of its configuration
// (the reservation window would only set the OnWindow sampling cadence),
// so cmesh carries config.Default() with those four fields kept and a
// link scale of at least 1. Call it after validating the configuration:
// it discards fields Validate would have checked.
func (s *Spec) Normalize() {
	if s.Backend == "" {
		s.Backend = BackendPEARL
	}
	if s.Seed == 0 {
		s.Seed = paperSeed
	}
	switch s.Backend {
	case BackendPEARL:
		s.LinkScale = 1
	case BackendCMESH:
		s.LinkScale = max(s.LinkScale, 1)
		cfg := config.Default()
		cfg.CPUBufferSlots, cfg.GPUBufferSlots = s.Config.CPUBufferSlots, s.Config.GPUBufferSlots
		cfg.WarmupCycles, cfg.MeasureCycles = s.Config.WarmupCycles, s.Config.MeasureCycles
		s.Config = cfg
	}
}

// AppendKey appends the spec's content address to dst: any field that
// changes the simulation's outcome is folded into the digest, computed
// from the normalized spec. Label and Controller are not (the
// controller is derived from Config.Power and Config.ModelRef, both
// keyed). The digested bytes are the lines backend, config (the
// canonical form), cpu, gpu, seed, warmup, measure and link_scale, each
// "name=value"; pearld's disk caches, warm-cache artifacts and
// GET /v1/cache/{key} address results by this key, so the bytes must
// not change.
func (s Spec) AppendKey(dst []byte) []byte {
	s.Normalize()
	var buf [512]byte
	b := append(buf[:0], "backend="...)
	b = append(b, s.Backend...)
	b = s.Config.AppendCanonical(append(b, "\nconfig="...))
	b = append(append(b, "cpu="...), s.Pair.CPU.Name...)
	b = append(append(b, "\ngpu="...), s.Pair.GPU.Name...)
	b = strconv.AppendUint(append(b, "\nseed="...), s.Seed, 10)
	b = strconv.AppendInt(append(b, "\nwarmup="...), int64(s.Config.WarmupCycles), 10)
	b = strconv.AppendInt(append(b, "\nmeasure="...), int64(s.Config.MeasureCycles), 10)
	b = strconv.AppendInt(append(b, "\nlink_scale="...), int64(s.LinkScale), 10)
	sum := sha256.Sum256(append(b, '\n'))
	return hex.AppendEncode(dst, sum[:KeyLen/2])
}

// Key is AppendKey as a string.
func (s Spec) Key() string {
	var key [KeyLen]byte
	return string(s.AppendKey(key[:0]))
}

// Options is the option set Run needs for the spec: its normalized seed
// and its configuration's run lengths.
func (s Spec) Options() Options {
	s.Normalize()
	return Options{
		Seed:          s.Seed,
		WarmupCycles:  int64(s.Config.WarmupCycles),
		MeasureCycles: int64(s.Config.MeasureCycles),
	}
}

// Bind sets the point's Controller to the one registered for
// Config.Power. A controller that needs a model gets its artifact from
// lookup, and Config.ModelRef is pinned to the artifact's content hash,
// so the key names the exact model version (and a name ref and its
// hash share one key). An electrical point has no controller. An error
// from lookup is returned as is.
func (s *Spec) Bind(lookup func(config.Config) (*models.Artifact, error)) error {
	if s.Backend == BackendCMESH {
		return nil
	}
	cs, ok := controller.ForPower(s.Config.Power)
	if !ok {
		return fmt.Errorf("no controller registered for power policy %s", s.Config.Power)
	}
	var art *models.Artifact
	if cs.Caps.NeedsModel {
		var err error
		if art, err = lookup(s.Config); err != nil {
			return err
		}
		s.Config.ModelRef = art.Hash
	}
	ctrl, err := cs.Factory(s.Config, art)
	if err != nil {
		return err
	}
	s.Controller = ctrl
	return nil
}
