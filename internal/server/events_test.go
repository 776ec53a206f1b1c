package server

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
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
// degrade to a no-op rather than dereference nil — the shard peer-feed
// proxy in particular appends through job.exec.events unconditionally.
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
