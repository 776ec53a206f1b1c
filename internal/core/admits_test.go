package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
)

// admitProgram builds a program for FuzzAdmits: the two class buffers'
// slot counts, then one 4-byte probe per packet (src, dst, class, size
// in units of 8 bits).
func admitProgram(cpuSlots, gpuSlots byte, probes ...[4]byte) []byte {
	prog := []byte{cpuSlots - 1, gpuSlots - 1}
	for _, p := range probes {
		prog = append(prog, p[:]...)
	}
	return prog
}

// repeatProbe is n copies of one probe.
func repeatProbe(n int, p [4]byte) [][4]byte {
	out := make([][4]byte, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// FuzzAdmits holds Network.Admits to "Inject of a fresh packet would
// succeed" over the buffer states a run of injections leaves: every
// probe asks Admits, checks that asking changed nothing, then injects
// the packet and compares. Sizes run from 0 bits up in steps of 8, so
// both of noc.Buffer.Push's tests are reached: the slot test (flits,
// rounded up, against free slots) and the packet-count test, which only
// zero-bit packets can fill before the slots. Sources include the L3
// router.
func FuzzAdmits(f *testing.F) {
	var (
		req   = [4]byte{0, 5, 0, 16}  // one 128-bit flit, CPU, router 0 -> 5
		wide  = [4]byte{0, 5, 0, 17}  // 136 bits: two flits
		empty = [4]byte{0, 5, 0, 0}   // zero bits: a packet but no slot
		l3    = [4]byte{16, 3, 1, 80} // a 640-bit GPU response from the L3
	)
	// The slot test; the flit rounding; the count test; L3 sources.
	f.Add(admitProgram(4, 4, repeatProbe(5, req)...))
	f.Add(admitProgram(3, 3, append(repeatProbe(2, req), wide)...))
	f.Add(admitProgram(2, 2, repeatProbe(3, empty)...))
	f.Add(admitProgram(8, 5, append(repeatProbe(2, l3), [4]byte{16, 9, 1, 1})...))
	f.Add([]byte("\x07\x03\x10\x00\x01\x11\x10\x05\x00\x40\x0b\x0b\x01\xff\x10\x02\x00\x00"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 || len(prog) > 4096 {
			return
		}
		cfg := config.PEARLDyn()
		cfg.CPUBufferSlots = 1 + int(prog[0]%8)
		cfg.GPUBufferSlots = 1 + int(prog[1]%8)
		n, err := New(sim.NewEngine(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := 0, prog[2:]; len(b) >= 4; i, b = i+1, b[4:] {
			src := int(b[0]) % config.NumRouters
			dst := int(b[1]) % config.NumRouters
			if dst == src {
				dst = (dst + 1) % config.NumRouters
			}
			class := noc.Class(b[2] & 1)
			bits := int(b[3]) * 8
			buf := n.routers[src].coreIn[class]
			used, count, drops := buf.Used(), buf.Len(), buf.Drops()
			want := n.Admits(src, dst, class, bits)
			if buf.Used() != used || buf.Len() != count || buf.Drops() != drops {
				t.Fatalf("probe %d: Admits changed the buffer", i)
			}
			p := &noc.Packet{ID: uint64(i + 1), Src: src, Dst: dst, Class: class, Kind: noc.KindRequest, SizeBits: bits}
			if got := n.Inject(p); got != want {
				t.Fatalf("probe %d: %d bits %d->%d class %d into %d/%d slots holding %d packets: Admits %v, Inject %v",
					i, bits, src, dst, class, used, buf.Capacity(), count, want, got)
			}
		}
	})
}
