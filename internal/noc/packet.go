// Package noc defines the network-on-chip vocabulary shared by the PEARL
// photonic network and the electrical CMESH baseline: packets, traffic
// classes, cache-level message sources, and bounded input buffers with
// occupancy accounting.
package noc

import "fmt"

// Class is the traffic class a packet belongs to. The dynamic bandwidth
// allocator splits link bandwidth between these two classes.
type Class int

const (
	// ClassCPU marks packets injected by CPU cores or their caches.
	ClassCPU Class = iota
	// ClassGPU marks packets injected by GPU compute units or their
	// caches.
	ClassGPU
)

// NumClasses is the number of traffic classes.
const NumClasses = 2

func (c Class) String() string {
	switch c {
	case ClassCPU:
		return "CPU"
	case ClassGPU:
		return "GPU"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Kind distinguishes coherence requests (no payload) from responses
// (carrying data). Features 10-13 of Table III count these separately.
type Kind int

const (
	// KindRequest asks for data or permission.
	KindRequest Kind = iota
	// KindResponse carries data back.
	KindResponse
)

func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Source identifies which cache level originated a packet. These map
// one-to-one onto features 14-29 of Table III (requests and responses are
// tracked per source). The "Up"/"Down" suffix on L2 sources follows the
// paper: up-traffic heads toward L1, down-traffic toward L3.
type Source int

const (
	SrcCPUL1I    Source = iota // CPU L1 instruction cache
	SrcCPUL1D                  // CPU L1 data cache
	SrcCPUL2Up                 // CPU L2 toward an L1
	SrcCPUL2Down               // CPU L2 toward the L3
	SrcGPUL1                   // GPU L1 cache
	SrcGPUL2Up                 // GPU L2 toward an L1
	SrcGPUL2Down               // GPU L2 toward the L3
	SrcL3                      // shared L3 cache

	// NumSources is the number of distinct cache sources.
	NumSources
)

var sourceNames = [NumSources]string{
	"CPU-L1I", "CPU-L1D", "CPU-L2-up", "CPU-L2-down",
	"GPU-L1", "GPU-L2-up", "GPU-L2-down", "L3",
}

func (s Source) String() string {
	if s >= 0 && s < NumSources {
		return sourceNames[s]
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// Packet is one network message. PEARL transmits a packet as a single
// 128-bit flit (requests) or a multi-flit burst (responses carrying a
// cache line); SizeBits captures the total payload plus header.
type Packet struct {
	// ID is unique per simulation run.
	ID uint64
	// Src and Dst are router indices on the optical crossbar (0-15
	// clusters, 16 = L3 router).
	Src, Dst int
	// Class is the CPU/GPU traffic class.
	Class Class
	// Kind is request or response.
	Kind Kind
	// Source is the cache level that injected the packet.
	Source Source
	// SizeBits is the serialized size on the link.
	SizeBits int
	// InjectCycle is when the generator created the packet.
	InjectCycle int64
	// EnqueueCycle is when it entered the source router's input buffer.
	EnqueueCycle int64
	// DepartCycle is when serialization onto the link finished.
	DepartCycle int64
	// ArriveCycle is when the destination received the last bit.
	ArriveCycle int64
	// Hops counts router traversals (1 for the single-hop photonic
	// crossbar; up to 6 in the 4x4 CMESH).
	Hops int
	// EjectedFlits is destination-side reassembly scratch: how many of
	// this packet's flits have ejected at the destination router (CMESH
	// wormhole eject path). The network resets it on delivery and the
	// pool zeroes it on reuse.
	EjectedFlits int
	// WantsResponse marks requests that should trigger a response packet
	// from the destination after service.
	WantsResponse bool
	// Reply marks a response that answers an outstanding request and
	// releases an MSHR credit when it arrives home. Writeback data
	// packets leave it false.
	Reply bool

	// flitsFor/flitsMemo memoize the last Flits computation. Every buffer
	// in a run shares one flit width, so after the first Push the division
	// never reruns on the hot path.
	flitsFor  int
	flitsMemo int
}

// Packet sizes on the link. A request fits one 128-bit flit; a response
// carries a 64-byte cache line plus a header flit.
const (
	RequestBits  = 128
	ResponseBits = 128 + 64*8
)

// NewRequest builds a request packet with the standard request size.
func NewRequest(id uint64, src, dst int, class Class, source Source, cycle int64) *Packet {
	return &Packet{
		ID: id, Src: src, Dst: dst, Class: class, Kind: KindRequest,
		Source: source, SizeBits: RequestBits, InjectCycle: cycle,
		WantsResponse: true,
	}
}

// NewResponse builds a response packet carrying a cache line.
func NewResponse(id uint64, src, dst int, class Class, source Source, cycle int64) *Packet {
	return &Packet{
		ID: id, Src: src, Dst: dst, Class: class, Kind: KindResponse,
		Source: source, SizeBits: ResponseBits, InjectCycle: cycle,
	}
}

// Latency returns end-to-end cycles from injection to arrival. It is only
// meaningful after delivery.
func (p *Packet) Latency() int64 { return p.ArriveCycle - p.InjectCycle }

// Flits returns how many flitBits-wide flits the packet occupies
// (ceiling). The result is memoized per flit width; SizeBits never
// changes after construction.
func (p *Packet) Flits(flitBits int) int {
	if flitBits <= 0 {
		panic("noc: non-positive flit width")
	}
	if flitBits != p.flitsFor {
		p.flitsFor = flitBits
		p.flitsMemo = (p.SizeBits + flitBits - 1) / flitBits
	}
	return p.flitsMemo
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %s %s %s %d->%d (%db)",
		p.ID, p.Class, p.Kind, p.Source, p.Src, p.Dst, p.SizeBits)
}
