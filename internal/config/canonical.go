package config

import "strconv"

// CanonicalString renders every field of the configuration in a fixed
// order with full float precision, so two Configs produce the same
// string iff they would build identical networks. Field names are
// spelled out (rather than relying on struct layout) so the encoding is
// stable across refactors that reorder fields; adding a field requires
// extending this list, which the round-trip test enforces by reflection.
func (c Config) CanonicalString() string { return string(c.AppendCanonical(nil)) }

// AppendCanonical appends the CanonicalString form to b and returns the
// extended buffer: one "name=value" line per field, integers in
// decimal, floats in exact hexadecimal floating point, the model ref
// Go-quoted. pearld's result-cache keys hash these bytes, and on-disk
// caches, warm-cache artifacts and shard peers address results by those
// keys, so the rendering must never change.
func (c Config) AppendCanonical(b []byte) []byte {
	b = appendInt(b, "bandwidth", int(c.Bandwidth))
	b = appendInt(b, "power", int(c.Power))
	b = appendInt(b, "static_wavelengths", c.StaticWavelengths)
	b = appendInt(b, "reservation_window", c.ReservationWindow)
	b = append(strconv.AppendBool(append(b, "allow_8wl="...), c.Allow8WL), '\n')
	b = appendInt(b, "cpu_buffer_slots", c.CPUBufferSlots)
	b = appendInt(b, "gpu_buffer_slots", c.GPUBufferSlots)
	b = appendFloats(b, "cpu_upper_bound", c.CPUUpperBound)
	b = appendFloats(b, "gpu_upper_bound", c.GPUUpperBound)
	b = appendFloats(b, "bandwidth_step", c.BandwidthStep)
	t := c.Thresholds
	b = appendFloats(b, "thresholds", t.Lower, t.MidLower, t.MidUpper, t.Upper)
	b = appendFloats(b, "laser_turn_on_ns", c.LaserTurnOnNs)
	b = appendInt(b, "feature_offset_cycles", c.FeatureOffsetCycles)
	b = appendInt(b, "warmup_cycles", c.WarmupCycles)
	b = appendInt(b, "measure_cycles", c.MeasureCycles)
	return append(strconv.AppendQuote(append(b, "model_ref="...), c.ModelRef), '\n')
}

// appendInt appends the line "name=v".
func appendInt(b []byte, name string, v int) []byte {
	b = append(append(b, name...), '=')
	return append(strconv.AppendInt(b, int64(v), 10), '\n')
}

// appendFloats appends the line "name=v1,v2,...", each value in the
// shortest hexadecimal form that reads back exactly (±Inf and NaN as
// +Inf, -Inf and NaN).
func appendFloats(b []byte, name string, vs ...float64) []byte {
	b = append(append(b, name...), '=')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'x', -1, 64)
	}
	return append(b, '\n')
}
