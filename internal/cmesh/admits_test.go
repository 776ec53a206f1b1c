package cmesh

import (
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
)

// FuzzAdmits holds Network.Admits to "Inject of a fresh packet would
// succeed" over the class-queue states a run of injections and ticks
// leaves. The program is the two class queues' slot counts, then one
// 4-byte probe per packet: source and destination ids (the L3 included,
// which maps onto an attachment point), class in bit 0 of the third
// byte, whose bit 7 first ticks the mesh 1-8 cycles (bits 4-6) so queues
// drain, and
// a size of 1+8k bits, so the flit count's rounding up is tested. Every
// probe asks Admits, checks that asking changed nothing, then injects
// the packet and compares.
func FuzzAdmits(f *testing.F) {
	var (
		req  = []byte{0, 5, 0, 15}    // 121 bits: one flit, CPU, router 0 -> 5
		wide = []byte{0, 5, 0, 16}    // 129 bits: two flits
		resp = []byte{16, 3, 1, 79}   // a 633-bit GPU response from the L3
		tick = []byte{16, 3, 0xf0, 0} // eight cycles, then a one-bit CPU packet
	)
	join := func(slots []byte, probes ...[]byte) []byte {
		for _, p := range probes {
			slots = append(slots, p...)
		}
		return slots
	}
	f.Add(join([]byte{3, 3}, req, req, req, req, req))
	f.Add(join([]byte{2, 2}, req, req, wide))
	f.Add(join([]byte{7, 4}, resp, resp, tick, resp, resp))
	f.Add([]byte("\x05\x02\x10\x00\x81\x11\x10\x05\x00\x40\x0b\x0b\x01\xff\x10\x02\x00\x00\x03\x0a\x86\x10"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 || len(prog) > 4096 {
			return
		}
		engine := sim.NewEngine()
		cfg := config.Default()
		cfg.CPUBufferSlots = 1 + int(prog[0]%8)
		cfg.GPUBufferSlots = 1 + int(prog[1]%8)
		n, err := New(engine, cfg)
		if err != nil {
			t.Fatal(err)
		}
		engine.Register(n)
		for i, b := 0, prog[2:]; len(b) >= 4; i, b = i+1, b[4:] {
			if b[2]&0x80 != 0 {
				engine.Run(int64(b[2]>>4&7) + 1)
			}
			src := int(b[0]) % config.NumRouters
			dst := int(b[1]) % config.NumRouters
			if dst == src {
				dst = (dst + 1) % config.NumRouters
			}
			class := noc.Class(b[2] & 1)
			bits := 1 + int(b[3])*8
			node := nodeFor(src, dst)
			used := n.slotsUsed
			want := n.Admits(src, dst, class, bits)
			if n.slotsUsed != used {
				t.Fatalf("probe %d: Admits changed the class queues", i)
			}
			p := &noc.Packet{ID: uint64(i + 1), Src: src, Dst: dst, Class: class, Kind: noc.KindRequest, SizeBits: bits}
			if got := n.Inject(p); got != want {
				t.Fatalf("probe %d: %d bits %d->%d class %d at node %d holding %v of %v slots: Admits %v, Inject %v",
					i, bits, src, dst, class, node, used[node], n.classSlots, want, got)
			}
		}
	})
}

// TestNodeForTable holds the lookup table to the attachment-point scan
// it was built from, for every pair of crossbar router ids.
func TestNodeForTable(t *testing.T) {
	for id := 0; id < config.NumRouters; id++ {
		for other := 0; other < config.NumRouters; other++ {
			if got, want := nodeFor(id, other), nearestNode(id, other); got != want {
				t.Fatalf("nodeFor(%d, %d) = %d, scan says %d", id, other, got, want)
			}
		}
	}
}

// TestNeighborTable holds each router's neighbor table to the mesh
// coordinates: the router one step away in the port's direction, and
// none past the edge, where asking panics.
func TestNeighborTable(t *testing.T) {
	_, n := build(t)
	step := [numNeighborPorts][2]int{portNorth: {0, -1}, portSouth: {0, 1}, portEast: {1, 0}, portWest: {-1, 0}}
	for _, r := range n.routers {
		for port, d := range step {
			x, y := r.x+d[0], r.y+d[1]
			if x < 0 || x >= Width || y < 0 || y >= Width {
				if r.nb[port] != nil {
					t.Fatalf("router %d has a neighbor past its edge on port %d", r.id, port)
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("router %d: neighbor past the edge on port %d did not panic", r.id, port)
						}
					}()
					r.neighbor(port)
				}()
				continue
			}
			if nb := r.neighbor(port); nb != n.routers[y*Width+x] {
				t.Fatalf("router %d port %d: neighbor %d, want %d", r.id, port, nb.id, y*Width+x)
			}
			if back := n.routers[y*Width+x].neighbor(opposite[port]); back != r {
				t.Fatalf("router %d port %d: the way back leads to %d", r.id, port, back.id)
			}
		}
	}
}
