package noc

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestClassStrings(t *testing.T) {
	if ClassCPU.String() != "CPU" || ClassGPU.String() != "GPU" {
		t.Error("class strings wrong")
	}
	if !strings.Contains(Class(7).String(), "7") {
		t.Error("unknown class should include code")
	}
}

func TestKindStrings(t *testing.T) {
	if KindRequest.String() != "request" || KindResponse.String() != "response" {
		t.Error("kind strings wrong")
	}
	if !strings.Contains(Kind(7).String(), "7") {
		t.Error("unknown kind should include code")
	}
}

func TestSourceStrings(t *testing.T) {
	seen := map[string]bool{}
	for s := Source(0); s < NumSources; s++ {
		name := s.String()
		if name == "" || seen[name] {
			t.Errorf("source %d has empty or duplicate name %q", s, name)
		}
		seen[name] = true
	}
	if !strings.Contains(Source(99).String(), "99") {
		t.Error("unknown source should include code")
	}
}

func TestNumSourcesMatchesFeatureTable(t *testing.T) {
	// Table III has 8 request sources (features 14-21) and 8 response
	// sources (features 22-29).
	if NumSources != 8 {
		t.Fatalf("NumSources = %d, want 8", NumSources)
	}
}

func TestNewRequestAndResponse(t *testing.T) {
	req := NewRequest(1, 2, 16, ClassGPU, SrcGPUL2Down, 100)
	if req.Kind != KindRequest || req.SizeBits != RequestBits || !req.WantsResponse {
		t.Errorf("bad request: %+v", req)
	}
	resp := NewResponse(2, 16, 2, ClassGPU, SrcL3, 150)
	if resp.Kind != KindResponse || resp.SizeBits != ResponseBits || resp.WantsResponse {
		t.Errorf("bad response: %+v", resp)
	}
}

func TestPacketFlits(t *testing.T) {
	req := NewRequest(1, 0, 1, ClassCPU, SrcCPUL1D, 0)
	if req.Flits(128) != 1 {
		t.Errorf("request flits = %d, want 1", req.Flits(128))
	}
	resp := NewResponse(2, 1, 0, ClassCPU, SrcL3, 0)
	// 128 + 512 = 640 bits -> 5 flits of 128.
	if resp.Flits(128) != 5 {
		t.Errorf("response flits = %d, want 5", resp.Flits(128))
	}
}

func TestPacketLatency(t *testing.T) {
	p := NewRequest(1, 0, 1, ClassCPU, SrcCPUL1I, 10)
	p.ArriveCycle = 25
	if p.Latency() != 15 {
		t.Errorf("latency = %d, want 15", p.Latency())
	}
}

func TestPacketStringMentionsEndpoints(t *testing.T) {
	p := NewRequest(42, 3, 16, ClassGPU, SrcGPUL1, 0)
	s := p.String()
	for _, want := range []string{"42", "GPU", "3->16"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestBufferPushPopFIFO(t *testing.T) {
	b := NewBuffer("test", 16, 128)
	for i := uint64(0); i < 5; i++ {
		if !b.Push(NewRequest(i, 0, 1, ClassCPU, SrcCPUL1D, 0)) {
			t.Fatalf("push %d failed", i)
		}
	}
	for i := uint64(0); i < 5; i++ {
		p := b.Pop()
		if p == nil || p.ID != i {
			t.Fatalf("pop %d returned %v", i, p)
		}
	}
	if b.Pop() != nil {
		t.Fatal("pop from empty buffer should be nil")
	}
}

func TestBufferSlotAccounting(t *testing.T) {
	b := NewBuffer("test", 8, 128)
	resp := NewResponse(1, 0, 1, ClassCPU, SrcL3, 0) // 5 slots
	if !b.Push(resp) {
		t.Fatal("push failed")
	}
	if b.Used() != 5 || b.Free() != 3 {
		t.Fatalf("used=%d free=%d, want 5/3", b.Used(), b.Free())
	}
	// A second 5-slot response must not fit.
	if b.Push(NewResponse(2, 0, 1, ClassCPU, SrcL3, 0)) {
		t.Fatal("push should have failed")
	}
	if b.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", b.Drops())
	}
	// A 1-slot request still fits.
	if !b.Push(NewRequest(3, 0, 1, ClassCPU, SrcCPUL1D, 0)) {
		t.Fatal("request push failed")
	}
	b.Pop()
	if b.Used() != 1 {
		t.Fatalf("used after pop = %d, want 1", b.Used())
	}
}

func TestBufferOccupancy(t *testing.T) {
	b := NewBuffer("test", 10, 128)
	if b.Occupancy() != 0 {
		t.Fatal("empty buffer occupancy not 0")
	}
	b.Push(NewResponse(1, 0, 1, ClassGPU, SrcL3, 0)) // 5 slots
	if b.Occupancy() != 0.5 {
		t.Fatalf("occupancy = %v, want 0.5", b.Occupancy())
	}
}

func TestBufferConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewBuffer("x", 0, 128) },
		func() { NewBuffer("x", 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestBufferConservationProperty(t *testing.T) {
	// Property: pushes - pops == queue length, and used slots equal the
	// sum of queued packet flits, for any operation sequence.
	f := func(ops []bool) bool {
		b := NewBuffer("prop", 32, 128)
		var id uint64
		pushed, popped := 0, 0
		for _, isPush := range ops {
			if isPush {
				var p *Packet
				if id%3 == 0 {
					p = NewResponse(id, 0, 1, ClassGPU, SrcL3, 0)
				} else {
					p = NewRequest(id, 0, 1, ClassCPU, SrcCPUL1D, 0)
				}
				id++
				if b.Push(p) {
					pushed++
				}
			} else if b.Pop() != nil {
				popped++
			}
		}
		if b.Len() != pushed-popped {
			return false
		}
		sum := 0
		for b.Len() > 0 {
			sum += b.Pop().Flits(128)
		}
		_ = sum
		return b.Used() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBufferOccupancyCacheProperty(t *testing.T) {
	// Property: Occupancy() is the cached ratio Push and Pop maintain, so
	// after every operation, rejected pushes and empty pops included, it
	// must equal float64(Used())/float64(Capacity()) bit for bit. Odd
	// capacities make the ratio inexact; multi-flit sizes make pushes
	// fail on slots as well as on queue length.
	f := func(capacity uint8, ops []uint16) bool {
		b := NewBuffer("occ", int(capacity%37)+1, 128)
		for i, op := range ops {
			if op&1 == 0 {
				p := NewRequest(uint64(i), 0, 1, ClassCPU, SrcCPUL1D, 0)
				p.SizeBits = int(op>>1)%(5*128) + 1 // 1-5 flits
				b.Push(p)
			} else {
				b.Pop()
			}
			want := float64(b.Used()) / float64(b.Capacity())
			if math.Float64bits(b.Occupancy()) != math.Float64bits(want) {
				t.Logf("op %d: Occupancy() = %v, want %v (%d/%d slots)", i, b.Occupancy(), want, b.Used(), b.Capacity())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFlitsPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRequest(1, 0, 1, ClassCPU, SrcCPUL1D, 0).Flits(0)
}
