package sim

import "fmt"

// Component is anything that advances once per network cycle. Tick is
// called with the cycle number about to execute; components must not
// assume any ordering relative to other components within a cycle except
// the registration order guaranteed by Engine.
type Component interface {
	Tick(cycle int64)
}

// ComponentFunc adapts a plain function to the Component interface.
type ComponentFunc func(cycle int64)

// Tick calls f(cycle).
func (f ComponentFunc) Tick(cycle int64) { f(cycle) }

// Handler consumes a typed event scheduled with SchedulePayload. ptr and
// arg are passed through verbatim from the Schedule call. Payload events
// exist so hot paths can schedule an event without allocating: storing a
// pointer type in ptr does not heap-allocate, unlike capturing it in a
// fresh closure.
type Handler interface {
	HandleEvent(cycle int64, ptr any, arg int64)
}

// event is one calendar entry: either a generic callback (fn != nil) or a
// typed payload handed to a Handler. Events are stored by value inside the
// calendar's reusable slices, so steady-state scheduling performs no
// per-event allocation.
type event struct {
	seq int64 // tiebreaker preserving schedule order within a cycle
	fn  func(cycle int64)
	h   Handler
	ptr any
	arg int64
}

// fire runs the event's callback or handler at the given cycle.
func (ev *event) fire(cycle int64) {
	if ev.fn != nil {
		ev.fn(cycle)
		return
	}
	ev.h.HandleEvent(cycle, ev.ptr, ev.arg)
}

// The calendar is a bucketed ring: one reusable FIFO slice per cycle in a
// window of calendarWindow cycles. Nearly every event in the simulator is
// scheduled a handful of cycles out (the router pipeline is 4 cycles, the
// longest memory-service latency is 144), so the ring absorbs the entire
// hot path; events calendarWindow or more cycles out spill to a small
// min-heap and migrate into their ring slot when it comes around.
const (
	calendarWindow = 256 // must be a power of two
	calendarMask   = calendarWindow - 1
)

// farEvent is an overflow-heap entry: an event plus its absolute cycle
// (ring slots know their cycle implicitly; the heap must not).
type farEvent struct {
	cycle int64
	event
}

// farHeap is a hand-rolled min-heap of farEvents ordered by (cycle, seq).
// It deliberately avoids container/heap: heap.Push/Pop box every element
// into an interface, allocating per event.
type farHeap []farEvent

func (h farHeap) less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}

func (h *farHeap) push(fe farEvent) {
	*h = append(*h, fe)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *farHeap) pop() farEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = farEvent{} // release references held by the vacated slot
	q = q[:n]
	*h = q
	for i := 0; ; {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.less(left, smallest) {
			smallest = left
		}
		if right < n && q.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}

// Engine drives a set of components and a calendar of one-shot events in
// lockstep. Each cycle it first fires every event scheduled for that cycle
// (in scheduling order), then ticks every component (in registration
// order). This two-phase order lets packets delivered by events be visible
// to routers in the same cycle.
type Engine struct {
	cycle      int64
	seq        int64
	pending    int
	components []Component

	// ring holds the near-future calendar: slot (c & calendarMask) is the
	// FIFO for cycle c. Slots are emptied when fired and their backing
	// arrays reused, so steady-state scheduling is allocation-free.
	ring [calendarWindow][]event
	// late holds events scheduled for the current cycle after its event
	// phase already ran (delta 0 from a component tick); they fire at the
	// start of the next Step, before that cycle's own events, preserving
	// the (cycle, seq) order a heap calendar would produce.
	late []event
	// far holds events calendarWindow or more cycles out.
	far farHeap
	// scratch is reused when far events merge into a ring slot.
	scratch []event
	// eventsDone marks that the current cycle's event phase has run.
	eventsDone bool

	// Frequency is the network clock in Hz; used to convert cycles to
	// wall-clock time for power integration. Defaults to 2 GHz.
	Frequency float64
}

// DefaultFrequency is the network clock from Table I (2 GHz).
const DefaultFrequency = 2e9

// NewEngine returns an empty engine running at the default 2 GHz network
// clock.
func NewEngine() *Engine {
	return &Engine{Frequency: DefaultFrequency}
}

// Register appends a component to the per-cycle tick list. Components tick
// in registration order.
func (e *Engine) Register(c Component) {
	if c == nil {
		panic("sim: Register(nil)")
	}
	e.components = append(e.components, c)
}

// Cycle returns the current cycle number (the number of fully executed
// cycles so far).
func (e *Engine) Cycle() int64 { return e.cycle }

// CyclePeriod returns the duration of one network cycle in seconds.
func (e *Engine) CyclePeriod() float64 { return 1 / e.Frequency }

// Schedule queues fn to run delta cycles from now (delta >= 0). delta == 0
// runs at the start of the next executed cycle if the current cycle's
// event phase has already passed.
func (e *Engine) Schedule(delta int64, fn func(cycle int64)) {
	if fn == nil {
		panic("sim: Schedule(nil)")
	}
	e.enqueue(delta, event{fn: fn})
}

// SchedulePayload queues a typed event: at its cycle, h.HandleEvent
// receives ptr and arg verbatim. Unlike Schedule, no closure is needed, so
// scheduling is allocation-free when ptr holds a pointer type. Payload and
// Schedule events share one calendar and fire strictly in schedule order
// within a cycle.
func (e *Engine) SchedulePayload(delta int64, h Handler, ptr any, arg int64) {
	if h == nil {
		panic("sim: SchedulePayload(nil handler)")
	}
	e.enqueue(delta, event{h: h, ptr: ptr, arg: arg})
}

// enqueue routes an event to the late list, the ring, or the far heap.
func (e *Engine) enqueue(delta int64, ev event) {
	if delta < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delta %d", delta))
	}
	e.seq++
	ev.seq = e.seq
	e.pending++
	switch {
	case delta == 0 && e.eventsDone:
		e.late = append(e.late, ev)
	case delta < calendarWindow:
		idx := (e.cycle + delta) & calendarMask
		e.ring[idx] = append(e.ring[idx], ev)
	default:
		e.far.push(farEvent{cycle: e.cycle + delta, event: ev})
	}
}

// ScheduleAt queues fn at an absolute cycle, which must not be in the
// past.
func (e *Engine) ScheduleAt(cycle int64, fn func(cycle int64)) {
	if cycle < e.cycle {
		panic(fmt.Sprintf("sim: ScheduleAt cycle %d already in the past (now %d)", cycle, e.cycle))
	}
	e.Schedule(cycle-e.cycle, fn)
}

// mergeFar moves every due far event to the front of the current slot.
// Far events were scheduled at least calendarWindow cycles ago — strictly
// before anything already in the slot — so prepending them in heap order
// reproduces exact (cycle, seq) firing order without a sort.
func (e *Engine) mergeFar(slot *[]event) {
	e.scratch = e.scratch[:0]
	for len(e.far) > 0 && e.far[0].cycle <= e.cycle {
		fe := e.far.pop()
		e.scratch = append(e.scratch, fe.event)
	}
	e.scratch = append(e.scratch, *slot...)
	*slot, e.scratch = e.scratch, *slot
	clear(e.scratch) // release references now duplicated into the slot
}

// Step executes exactly one cycle: pending events for this cycle first,
// then every registered component.
func (e *Engine) Step() {
	if len(e.late) > 0 {
		for i := 0; i < len(e.late); i++ {
			e.pending--
			e.late[i].fire(e.cycle)
		}
		clear(e.late)
		e.late = e.late[:0]
	}
	slot := &e.ring[e.cycle&calendarMask]
	if len(e.far) > 0 && e.far[0].cycle <= e.cycle {
		e.mergeFar(slot)
	}
	// Events fired here may schedule more delta-0 events; they append to
	// this same slot and the re-read of len picks them up in seq order.
	for i := 0; i < len(*slot); i++ {
		e.pending--
		(*slot)[i].fire(e.cycle)
	}
	clear(*slot)
	*slot = (*slot)[:0]
	e.eventsDone = true
	for _, c := range e.components {
		c.Tick(e.cycle)
	}
	e.cycle++
	e.eventsDone = false
}

// Run executes n cycles.
func (e *Engine) Run(n int64) {
	for i := int64(0); i < n; i++ {
		e.Step()
	}
}

// PendingEvents reports how many scheduled events have not yet fired.
// Useful for drain checks in tests.
func (e *Engine) PendingEvents() int { return e.pending }
