package noc

// Pool is a LIFO free list of Packets. In steady state the workload
// recycles every delivered packet back through the pool, so the simulator
// stops allocating packets entirely after warm-up.
//
// Pooling invariant: a packet handed to Put must not be referenced again
// by its previous owner. In this codebase that means a delivered packet is
// recycled only at the end of the delivery callback (OnDeliver) — nothing
// downstream of delivery retains packet pointers (stats read fields before
// the callback runs, and anything that needs packet data longer must copy
// it).
//
// Pool is NOT safe for concurrent use. Each Workload owns its own pool,
// matching the one-goroutine-per-simulation model.
type Pool struct {
	free []*Packet
}

// Get returns a zeroed packet, reusing a recycled one when available.
func (pl *Pool) Get() *Packet {
	n := len(pl.free)
	if n == 0 {
		return &Packet{}
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	*p = Packet{}
	return p
}

// Put recycles a packet. The caller must drop all references to it.
func (pl *Pool) Put(p *Packet) {
	if p == nil {
		return
	}
	pl.free = append(pl.free, p)
}

// Len returns the number of packets currently in the free list.
func (pl *Pool) Len() int { return len(pl.free) }

// GetRequest builds a request packet with the standard request size,
// reusing pooled storage.
func (pl *Pool) GetRequest(id uint64, src, dst int, class Class, source Source, cycle int64) *Packet {
	p := pl.Get()
	p.ID, p.Src, p.Dst, p.Class, p.Kind = id, src, dst, class, KindRequest
	p.Source, p.SizeBits, p.InjectCycle = source, RequestBits, cycle
	p.WantsResponse = true
	return p
}

// GetResponse builds a response packet carrying a cache line, reusing
// pooled storage.
func (pl *Pool) GetResponse(id uint64, src, dst int, class Class, source Source, cycle int64) *Packet {
	p := pl.Get()
	p.ID, p.Src, p.Dst, p.Class, p.Kind = id, src, dst, class, KindResponse
	p.Source, p.SizeBits, p.InjectCycle = source, ResponseBits, cycle
	return p
}
