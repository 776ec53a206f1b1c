package server

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/experiments"
)

// testEvent is a minimal ring payload carrying a recognizable marker.
type testEvent struct {
	frameMeta
	N int `json:"n"`
}

// ringSeqs flattens the buffered sequence numbers.
func ringSeqs(evs []streamEvent) []uint64 {
	out := make([]uint64, len(evs))
	for i, ev := range evs {
		out[i] = ev.seq
	}
	return out
}

// TestEventRingDropOldestAccounting pins the ring's exact overflow
// semantics: capacity C holding the newest C frames, a lifetime drop
// counter, and every surviving frame stamped with the drop count at
// its own append time — the invariant that makes a consumer-side gap
// check ("dropped grew" / "seq skipped") exact.
func TestEventRingDropOldestAccounting(t *testing.T) {
	const capacity, total = 4, 10
	r := newEventRing(capacity)
	for i := 1; i <= total; i++ {
		appended, evicted := r.append(eventKindWindow, &testEvent{N: i})
		if !appended {
			t.Fatalf("append %d rejected on an open ring", i)
		}
		if wantEvict := i > capacity; evicted != wantEvict {
			t.Fatalf("append %d: evicted=%v, want %v", i, evicted, wantEvict)
		}
	}
	appended, dropped, closed := r.stats()
	if appended != total || dropped != total-capacity || closed {
		t.Fatalf("stats = (%d, %d, %v), want (%d, %d, false)", appended, dropped, closed, total, total-capacity)
	}
	evs, _, _ := r.since(0)
	if got, want := fmt.Sprint(ringSeqs(evs)), "[7 8 9 10]"; got != want {
		t.Fatalf("buffered seqs %s, want %s (newest %d survive)", got, want, capacity)
	}
	// Appending frame seq k onto a full ring evicts one frame first, so
	// k (beyond the first capacity frames) is stamped with k-capacity
	// drops.
	for _, ev := range evs {
		var body testEvent
		if err := json.Unmarshal(ev.data, &body); err != nil {
			t.Fatalf("frame %d: %v", ev.seq, err)
		}
		want := ev.seq - capacity
		if body.Dropped != want || uint64(body.N) != ev.seq {
			t.Fatalf("frame %d stamped dropped=%d n=%d, want dropped=%d n=%d",
				ev.seq, body.Dropped, body.N, want, ev.seq)
		}
	}
}

// TestEventRingResume covers Last-Event-ID semantics at the ring
// level: since(after) returns exactly the buffered frames newer than
// after, including the empty tail.
func TestEventRingResume(t *testing.T) {
	r := newEventRing(8)
	for i := 1; i <= 5; i++ {
		r.append(eventKindWindow, &testEvent{N: i})
	}
	for _, tc := range []struct {
		after uint64
		want  string
	}{
		{0, "[1 2 3 4 5]"},
		{3, "[4 5]"},
		{5, "[]"},
		{99, "[]"}, // future id: nothing to replay, not an error
	} {
		evs, _, _ := r.since(tc.after)
		if got := fmt.Sprint(ringSeqs(evs)); got != tc.want {
			t.Fatalf("since(%d) = %s, want %s", tc.after, got, tc.want)
		}
	}

	// An overflowed ring holds seqs 7..10 at slots that wrapped: since
	// seeks by index, so ids below the oldest buffered frame replay the
	// whole buffer and ids past the newest replay nothing.
	full := newEventRing(4)
	for i := 1; i <= 10; i++ {
		full.append(eventKindWindow, &testEvent{N: i})
	}
	for _, tc := range []struct {
		after uint64
		want  string
	}{
		{0, "[7 8 9 10]"},
		{3, "[7 8 9 10]"}, // below the oldest buffered seq
		{6, "[7 8 9 10]"},
		{7, "[8 9 10]"},
		{9, "[10]"},
		{10, "[]"},
		{11, "[]"}, // beyond the newest
		{math.MaxUint64, "[]"},
	} {
		evs, _, _ := full.since(tc.after)
		if got := fmt.Sprint(ringSeqs(evs)); got != tc.want {
			t.Fatalf("overflowed ring: since(%d) = %s, want %s", tc.after, got, tc.want)
		}
		for _, ev := range evs {
			var body testEvent
			if err := json.Unmarshal(ev.data, &body); err != nil || uint64(body.N) != ev.seq {
				t.Fatalf("since(%d): frame %d carries %s", tc.after, ev.seq, ev.data)
			}
		}
	}
}

// sampleJob is the identity a window sample's frame reports.
var sampleJob = &Job{ID: "job-000042", label: "dyn-rw500", pair: "fmm+DCT"}

// testSample is a window sample whose measurement encodes n.
func testSample(n int) *windowSample {
	return &windowSample{job: sampleJob, stats: experiments.WindowStats{
		Window: n, Cycle: int64(500 * (n + 1)), Cycles: 500, DeliveredPackets: uint64(3 * n),
		ThroughputBitsPerCycle: float64(n) / 3, LatencyP50Cycles: 12.5, LatencyP99Cycles: 40,
		WavelengthsOn: 32, PowerW: 1.25, InFlight: n % 7,
	}}
}

// TestEventRingWindowSampleFrames: a ring keeps window samples, not
// their JSON, but a reader receives exactly the bytes marshalling the
// frame at append would have given — the job's identity, the
// measurement and the drop stamp of the moment it was appended —
// before and after the ring is sealed.
func TestEventRingWindowSampleFrames(t *testing.T) {
	const capacity, total = 4, 9
	r := newEventRing(capacity)
	for i := 1; i <= total; i++ {
		r.append(eventKindWindow, testSample(i))
	}
	check := func(evs []streamEvent) {
		t.Helper()
		for _, ev := range evs {
			if ev.seq == total+1 {
				continue // the end frame
			}
			want, err := json.Marshal(WindowEvent{
				frameMeta:   frameMeta{Dropped: ev.seq - capacity},
				JobID:       sampleJob.ID,
				Label:       sampleJob.label,
				Pair:        sampleJob.pair,
				WindowStats: testSample(int(ev.seq)).stats,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ev.kind != eventKindWindow || string(ev.data) != string(want) {
				t.Fatalf("frame %d: %s %s, want window %s", ev.seq, ev.kind, ev.data, want)
			}
		}
	}
	live, _, _ := r.since(0)
	if fmt.Sprint(ringSeqs(live)) != "[6 7 8 9]" {
		t.Fatalf("buffered seqs %v, want [6 7 8 9]", ringSeqs(live))
	}
	check(live)
	r.close(eventKindEnd, &testEvent{N: total + 1})
	sealed, closed, _ := r.since(0)
	if !closed || fmt.Sprint(ringSeqs(sealed)) != "[7 8 9 10]" {
		t.Fatalf("sealed ring reads %v (closed=%v), want [7 8 9 10]", ringSeqs(sealed), closed)
	}
	check(sealed)

	// A ring sealed before it filled gives back the slack append growth
	// left: it keeps exactly the frames it holds.
	short := newEventRing(64)
	for i := 1; i <= 5; i++ {
		short.append(eventKindWindow, testSample(i))
	}
	short.close(eventKindEnd, &testEvent{N: 6})
	if cap(short.buf) != 6 {
		t.Fatalf("sealed ring keeps %d slots for its 6 frames", cap(short.buf))
	}
}

// TestEventRingRefusesNonFiniteSample: json.Marshal refuses NaN and
// ±Inf, so a window sample carrying one in any float field is refused
// at append, as the marshalled frame was: no seq, no eviction, no
// wake-up. Every float64 field of WindowStats is tried, so a field
// added later that finite misses fails here.
func TestEventRingRefusesNonFiniteSample(t *testing.T) {
	r := newEventRing(2)
	r.append(eventKindWindow, testSample(1))
	r.append(eventKindWindow, testSample(2))
	_, _, wait := r.since(0)
	stats := reflect.TypeOf(experiments.WindowStats{})
	floats := 0
	for i := 0; i < stats.NumField(); i++ {
		if stats.Field(i).Type.Kind() != reflect.Float64 {
			continue
		}
		floats++
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			w := testSample(3)
			reflect.ValueOf(&w.stats).Elem().Field(i).SetFloat(bad)
			if data := w.marshal(0); data != nil {
				t.Fatalf("%s=%v marshals; the refusal has no reason", stats.Field(i).Name, bad)
			}
			if appended, evicted := r.append(eventKindWindow, w); appended || evicted {
				t.Fatalf("%s=%v accepted (evicted=%v)", stats.Field(i).Name, bad, evicted)
			}
		}
	}
	if floats == 0 {
		t.Fatal("WindowStats has no float64 field; the check tried nothing")
	}
	select {
	case <-wait:
		t.Fatal("a refused sample woke the readers")
	default:
	}
	if appended, dropped, _ := r.stats(); appended != 2 || dropped != 0 {
		t.Fatalf("stats after refusals = (%d, %d), want (2, 0)", appended, dropped)
	}
	r.append(eventKindWindow, testSample(3))
	if evs, _, _ := r.since(0); fmt.Sprint(ringSeqs(evs)) != "[2 3]" {
		t.Fatalf("after refusals the next sample is %v, want seqs [2 3]", ringSeqs(evs))
	}
}

// TestEventRingClose pins the sealing contract: the terminal frame is
// buffered like any other, later appends are swallowed without a seq
// gap, and close is idempotent.
func TestEventRingClose(t *testing.T) {
	r := newEventRing(8)
	r.append(eventKindWindow, &testEvent{N: 1})
	if !r.close(eventKindEnd, &testEvent{N: 2}) {
		t.Fatal("first close rejected")
	}
	if r.close(eventKindEnd, &testEvent{N: 3}) {
		t.Fatal("second close accepted; close must be idempotent")
	}
	if appended, _ := r.append(eventKindWindow, &testEvent{N: 4}); appended {
		t.Fatal("append accepted on a sealed ring")
	}
	evs, closed, _ := r.since(0)
	if !closed || fmt.Sprint(ringSeqs(evs)) != "[1 2]" {
		t.Fatalf("sealed ring reads (%v, closed=%v), want seqs [1 2], closed", ringSeqs(evs), closed)
	}
	if ev := evs[len(evs)-1]; ev.kind != eventKindEnd {
		t.Fatalf("final frame kind %q, want %q", ev.kind, eventKindEnd)
	}
	if appended, _, closed := r.stats(); appended != 2 || !closed {
		t.Fatalf("stats after close = (%d, closed=%v), want (2, true)", appended, closed)
	}
}

// TestEventRingNilSafe: jobs constructed outside the HTTP path (tests,
// future internal callers) carry no ring; every ring operation must
// degrade to a no-op rather than dereference nil.
func TestEventRingNilSafe(t *testing.T) {
	var r *eventRing
	if appended, evicted := r.append(eventKindWindow, &testEvent{}); appended || evicted {
		t.Fatal("nil ring accepted an append")
	}
	if r.close(eventKindEnd, &testEvent{}) {
		t.Fatal("nil ring accepted a close")
	}
	evs, closed, _ := r.since(0)
	if len(evs) != 0 || !closed {
		t.Fatalf("nil ring reads (%d events, closed=%v), want empty and sealed", len(evs), closed)
	}
	if appended, dropped, closed := r.stats(); appended != 0 || dropped != 0 || !closed {
		t.Fatal("nil ring stats not empty/sealed")
	}
}

// TestEventRingConcurrent hammers one ring with parallel writers and
// readers under the race detector. Invariants checked: lifetime
// accounting is exact (appended = writers x frames, buffered = min(cap,
// appended) after close), readers always observe strictly increasing
// seqs, and every parked reader wakes on close.
func TestEventRingConcurrent(t *testing.T) {
	const (
		writers  = 4
		frames   = 200
		capacity = 32
		readers  = 3
	)
	r := newEventRing(capacity)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				r.append(eventKindWindow, &testEvent{N: i})
			}
		}()
	}

	readErr := make(chan error, readers)
	var rg sync.WaitGroup
	for i := 0; i < readers; i++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			var last uint64
			for {
				evs, closed, wait := r.since(last)
				for _, ev := range evs {
					if ev.seq <= last {
						readErr <- fmt.Errorf("seq went backwards: %d after %d", ev.seq, last)
						return
					}
					last = ev.seq
				}
				if closed {
					return
				}
				<-wait
			}
		}()
	}

	wg.Wait()
	r.close(eventKindEnd, &testEvent{})
	rg.Wait()
	close(readErr)
	for err := range readErr {
		t.Error(err)
	}

	appended, dropped, closed := r.stats()
	wantAppended := uint64(writers*frames + 1) // + the end frame
	if appended != wantAppended || !closed {
		t.Fatalf("appended = %d, closed = %v; want %d, true", appended, closed, wantAppended)
	}
	evs, _, _ := r.since(0)
	if len(evs) != capacity {
		t.Fatalf("buffered %d frames, want full capacity %d", len(evs), capacity)
	}
	if dropped != wantAppended-capacity {
		t.Fatalf("dropped = %d, want %d (every append beyond capacity evicts exactly one)",
			dropped, wantAppended-capacity)
	}
}

// TestEventRingConcurrentSamples is TestEventRingConcurrent for window
// samples, which readers marshal after releasing the ring lock while
// writers keep overwriting the slots they were copied from: every frame
// a reader gets must decode to the sample appended under its seq, with
// that append's drop stamp.
func TestEventRingConcurrentSamples(t *testing.T) {
	const (
		writers  = 4
		frames   = 200
		capacity = 16
		readers  = 3
	)
	r := newEventRing(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				r.append(eventKindWindow, testSample(i))
			}
		}()
	}
	readErr := make(chan error, readers)
	var rg sync.WaitGroup
	for i := 0; i < readers; i++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			var last uint64
			for {
				evs, closed, wait := r.since(last)
				for _, ev := range evs {
					if ev.kind != eventKindWindow {
						continue
					}
					var got WindowEvent
					if err := json.Unmarshal(ev.data, &got); err != nil {
						readErr <- fmt.Errorf("frame %d: %v", ev.seq, err)
						return
					}
					wantDropped := ev.seq - min(ev.seq, capacity)
					if got.Dropped != wantDropped || got.JobID != sampleJob.ID ||
						got.WindowStats != testSample(got.Window).stats {
						readErr <- fmt.Errorf("frame %d decodes to %+v, want dropped %d and sample %d intact",
							ev.seq, got, wantDropped, got.Window)
						return
					}
					last = ev.seq
				}
				if closed {
					return
				}
				<-wait
			}
		}()
	}
	wg.Wait()
	r.close(eventKindEnd, &testEvent{})
	rg.Wait()
	close(readErr)
	for err := range readErr {
		t.Error(err)
	}
}
