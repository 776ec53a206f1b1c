package config

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestCanonicalStringStableAcrossCalls(t *testing.T) {
	if a, b := string(Default().AppendCanonical(nil)), string(Default().AppendCanonical(nil)); a != b {
		t.Fatalf("Default()'s canonical form not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestCanonicalStringDistinguishesConfigs(t *testing.T) {
	seen := map[string]string{}
	for _, c := range []Config{
		Default(),
		PEARLFCFS(),
		StaticWL(32),
		StaticWL(16),
		DynRW(500),
		DynRW(2000),
		MLRW(500, true),
		MLRW(500, false),
	} {
		s := string(c.AppendCanonical(nil))
		if prev, dup := seen[s]; dup {
			t.Fatalf("%s and %s render the same canonical string", prev, c.Name())
		}
		seen[s] = c.Name()
	}
}

func TestCanonicalStringSensitiveToFloatFields(t *testing.T) {
	a := Default()
	b := Default()
	b.Thresholds.Lower += 1e-12
	if string(a.AppendCanonical(nil)) == string(b.AppendCanonical(nil)) {
		t.Fatal("canonical string ignores tiny threshold change")
	}
	c := Default()
	c.LaserTurnOnNs = 2.0000001
	if string(a.AppendCanonical(nil)) == string(c.AppendCanonical(nil)) {
		t.Fatal("canonical string ignores tiny laser turn-on change")
	}
}

// TestCanonicalStringCoversEveryField guards against a new Config field
// silently falling out of the cache key: every top-level field must
// change the canonical string when perturbed.
func TestCanonicalStringCoversEveryField(t *testing.T) {
	base := Default()
	baseStr := string(base.AppendCanonical(nil))
	rt := reflect.TypeOf(base)
	if got, want := rt.NumField(), 16; got != want {
		t.Fatalf("Config has %d fields, canonical encoding written for %d — update AppendCanonical, fmtCanonical and this test", got, want)
	}
	for i := 0; i < rt.NumField(); i++ {
		c := base
		rv := reflect.ValueOf(&c).Elem().Field(i)
		switch rv.Kind() {
		case reflect.Int:
			rv.SetInt(rv.Int() + 1)
		case reflect.Bool:
			rv.SetBool(!rv.Bool())
		case reflect.Float64:
			rv.SetFloat(rv.Float() + 0.125)
		case reflect.Struct: // Thresholds
			rv.Field(0).SetFloat(rv.Field(0).Float() + 0.125)
		case reflect.String: // ModelRef
			rv.SetString(rv.String() + "x")
		default:
			t.Fatalf("unhandled field kind %v for %s", rv.Kind(), rt.Field(i).Name)
		}
		if string(c.AppendCanonical(nil)) == baseStr {
			t.Errorf("field %s does not affect the canonical form", rt.Field(i).Name)
		}
	}
}

func TestCanonicalStringIsLineOriented(t *testing.T) {
	s := string(Default().AppendCanonical(nil))
	if !strings.Contains(s, "static_wavelengths=64\n") {
		t.Fatalf("canonical string missing expected line:\n%s", s)
	}
}

// fmtCanonical is the fmt rendering the canonical form was first
// defined by. Result-cache keys hash these bytes, so AppendCanonical
// must reproduce it exactly; it is kept here only as the reference.
func fmtCanonical(c Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "bandwidth=%d\n", int(c.Bandwidth))
	fmt.Fprintf(&b, "power=%d\n", int(c.Power))
	fmt.Fprintf(&b, "static_wavelengths=%d\n", c.StaticWavelengths)
	fmt.Fprintf(&b, "reservation_window=%d\n", c.ReservationWindow)
	fmt.Fprintf(&b, "allow_8wl=%t\n", c.Allow8WL)
	fmt.Fprintf(&b, "cpu_buffer_slots=%d\n", c.CPUBufferSlots)
	fmt.Fprintf(&b, "gpu_buffer_slots=%d\n", c.GPUBufferSlots)
	fmt.Fprintf(&b, "cpu_upper_bound=%x\n", c.CPUUpperBound)
	fmt.Fprintf(&b, "gpu_upper_bound=%x\n", c.GPUUpperBound)
	fmt.Fprintf(&b, "bandwidth_step=%x\n", c.BandwidthStep)
	fmt.Fprintf(&b, "thresholds=%x,%x,%x,%x\n",
		c.Thresholds.Lower, c.Thresholds.MidLower, c.Thresholds.MidUpper, c.Thresholds.Upper)
	fmt.Fprintf(&b, "laser_turn_on_ns=%x\n", c.LaserTurnOnNs)
	fmt.Fprintf(&b, "feature_offset_cycles=%d\n", c.FeatureOffsetCycles)
	fmt.Fprintf(&b, "warmup_cycles=%d\n", c.WarmupCycles)
	fmt.Fprintf(&b, "measure_cycles=%d\n", c.MeasureCycles)
	fmt.Fprintf(&b, "model_ref=%q\n", c.ModelRef)
	return b.String()
}

// edgeFloats are the float64 values whose rendering differs most
// between formatters: signed infinities, NaN, both zeros, subnormals
// and the extremes of the normal range.
var edgeFloats = []float64{
	math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, 0x1.fffffffffffffp-1023,
	math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, 1, -1, 0.1, 0.16, 1e-12,
}

// edgeRefs are model refs that need quoting: quotes, backslashes,
// control bytes, non-ASCII runes, invalid UTF-8 and a line separator.
var edgeRefs = []string{
	"", "rw500", `a"b`, `back\slash`, "tab\tnew\nline", "\x00\x7f", "énergie", "日本", "\xff\xfe", " ", "emoji 🙂",
}

// TestAppendCanonicalMatchesFmt compares AppendCanonical with the fmt
// reference over every preset, every edge float in every float field,
// quoting-sensitive model refs, and random configurations whose fields
// take arbitrary bit patterns.
func TestAppendCanonicalMatchesFmt(t *testing.T) {
	check := func(c Config) {
		t.Helper()
		want := fmtCanonical(c)
		if got := string(c.AppendCanonical(nil)); got != want {
			t.Fatalf("canonical form differs from the fmt rendering:\ngot  %q\nwant %q", got, want)
		}
		prefix := []byte("key-prefix\n")
		if got := string(c.AppendCanonical(prefix)); got != string(prefix)+want {
			t.Fatalf("AppendCanonical does not append after existing bytes: %q", got)
		}
	}
	for _, name := range PresetNames() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		check(c)
	}
	for _, v := range edgeFloats {
		for _, set := range []func(*Config){
			func(c *Config) { c.CPUUpperBound = v },
			func(c *Config) { c.GPUUpperBound = v },
			func(c *Config) { c.BandwidthStep = v },
			func(c *Config) { c.Thresholds.Lower = v },
			func(c *Config) { c.Thresholds.MidLower = v },
			func(c *Config) { c.Thresholds.MidUpper = v },
			func(c *Config) { c.Thresholds.Upper = v },
			func(c *Config) { c.LaserTurnOnNs = v },
		} {
			c := Default()
			set(&c)
			check(c)
		}
	}
	for _, ref := range edgeRefs {
		c := MLRW(500, true)
		c.ModelRef = ref
		check(c)
	}
	rng := rand.New(rand.NewSource(2018))
	f := func() float64 {
		if rng.Intn(4) == 0 {
			return edgeFloats[rng.Intn(len(edgeFloats))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	i := func() int { return int(rng.Uint64()) >> rng.Intn(64) }
	for n := 0; n < 2000; n++ {
		check(Config{
			Bandwidth:           BandwidthPolicy(i()),
			Power:               PowerPolicy(i()),
			StaticWavelengths:   i(),
			ReservationWindow:   i(),
			Allow8WL:            rng.Intn(2) == 0,
			CPUBufferSlots:      i(),
			GPUBufferSlots:      i(),
			CPUUpperBound:       f(),
			GPUUpperBound:       f(),
			BandwidthStep:       f(),
			Thresholds:          PowerThresholds{Lower: f(), MidLower: f(), MidUpper: f(), Upper: f()},
			LaserTurnOnNs:       f(),
			FeatureOffsetCycles: i(),
			WarmupCycles:        i(),
			MeasureCycles:       i(),
			ModelRef:            edgeRefs[rng.Intn(len(edgeRefs))] + string(rune(rng.Intn(0x11000))),
		})
	}
}
