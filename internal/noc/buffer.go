package noc

import "fmt"

// Buffer is a bounded FIFO of packets whose occupancy is measured in flit
// slots (128-bit buffer slots, per §IV: "each buffer slot is 128 bits").
// A multi-flit response therefore consumes several slots. Occupancy feeds
// the dynamic bandwidth allocator (Eq. 1-3) and the power-scaling window
// sums.
//
// Storage is a fixed-capacity circular queue allocated once at
// construction: a packet occupies at least one slot, so the queue can
// never hold more packets than the buffer has slots. Push and Pop are
// allocation-free, unlike a re-sliced []*Packet, whose popped head keeps
// the backing array alive and forces a fresh allocation every time append
// outgrows it.
type Buffer struct {
	name     string
	capacity int // capacity in flit slots
	flitBits int
	used     int // occupied flit slots
	// occ caches float64(used)/float64(capacity): Push and Pop set it, so
	// the per-cycle occupancy reads of the allocator and the feature
	// gauges pay no division.
	occ float64

	// queue is the circular packet store: count packets starting at head,
	// wrapping modulo len(queue) (== capacity).
	queue []*Packet
	head  int
	count int

	// drops counts packets rejected because the buffer was full.
	drops uint64
}

// NewBuffer returns an empty buffer holding capacitySlots flit slots of
// flitBits each.
func NewBuffer(name string, capacitySlots, flitBits int) *Buffer {
	if capacitySlots <= 0 {
		panic(fmt.Sprintf("noc: buffer %q with non-positive capacity", name))
	}
	if flitBits <= 0 {
		panic(fmt.Sprintf("noc: buffer %q with non-positive flit width", name))
	}
	return &Buffer{
		name:     name,
		capacity: capacitySlots,
		flitBits: flitBits,
		queue:    make([]*Packet, capacitySlots),
	}
}

// Name returns the buffer's diagnostic name.
func (b *Buffer) Name() string { return b.name }

// Capacity returns total flit slots.
func (b *Buffer) Capacity() int { return b.capacity }

// Used returns occupied flit slots.
func (b *Buffer) Used() int { return b.used }

// Free returns unoccupied flit slots.
func (b *Buffer) Free() int { return b.capacity - b.used }

// Len returns the number of queued packets (not slots).
func (b *Buffer) Len() int { return b.count }

// Occupancy returns used/capacity in [0,1]; this is the β term of
// Eq. 1-2.
func (b *Buffer) Occupancy() float64 { return b.occ }

// Push appends the packet if it fits and reports success. A rejected push
// is counted as a drop.
func (b *Buffer) Push(p *Packet) bool {
	need := p.Flits(b.flitBits)
	if need > b.Free() || b.count == len(b.queue) {
		b.drops++
		return false
	}
	b.used += need
	b.occ = float64(b.used) / float64(b.capacity)
	tail := b.head + b.count
	if tail >= len(b.queue) {
		tail -= len(b.queue)
	}
	b.queue[tail] = p
	b.count++
	return true
}

// Front returns the head packet without removing it, or nil when empty.
func (b *Buffer) Front() *Packet {
	if b.count == 0 {
		return nil
	}
	return b.queue[b.head]
}

// Pop removes and returns the head packet, or nil when empty.
func (b *Buffer) Pop() *Packet {
	if b.count == 0 {
		return nil
	}
	p := b.queue[b.head]
	b.queue[b.head] = nil
	b.head++
	if b.head == len(b.queue) {
		b.head = 0
	}
	b.count--
	b.used -= p.Flits(b.flitBits)
	b.occ = float64(b.used) / float64(b.capacity)
	return p
}

// Drops returns how many pushes were rejected.
func (b *Buffer) Drops() uint64 { return b.drops }

func (b *Buffer) String() string {
	return fmt.Sprintf("buf[%s %d/%d slots, %d pkts]", b.name, b.used, b.capacity, b.count)
}
