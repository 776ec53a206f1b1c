package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/noc"
	"repro/internal/sim"
)

func sampleRecords() []Record {
	return []Record{
		{ID: 1, Src: 0, Dst: 16, Class: noc.ClassCPU, Kind: noc.KindRequest, Source: noc.SrcCPUL1D, SizeBits: 128, InjectCycle: 0},
		{ID: 2, Src: 16, Dst: 0, Class: noc.ClassCPU, Kind: noc.KindResponse, Source: noc.SrcL3, SizeBits: 640, InjectCycle: 30},
		{ID: 3, Src: 3, Dst: 7, Class: noc.ClassGPU, Kind: noc.KindRequest, Source: noc.SrcGPUL1, SizeBits: 128, InjectCycle: 30},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if len(got) != len(want) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(ids []uint16, seed uint64) bool {
		rng := sim.NewRNG(seed)
		recs := make([]Record, len(ids))
		cycle := int64(0)
		for i, id := range ids {
			cycle += int64(rng.Intn(10))
			recs[i] = Record{
				ID:  uint64(id),
				Src: int32(rng.Intn(17)), Dst: int32(rng.Intn(17)),
				Class:    noc.Class(rng.Intn(2)),
				Kind:     noc.Kind(rng.Intn(2)),
				Source:   noc.Source(rng.Intn(int(noc.NumSources))),
				SizeBits: int32(128 * (1 + rng.Intn(5))), InjectCycle: cycle,
			}
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, recs); err != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadAllRejectsBadMagic(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader([]byte("NOTATRCE\x01\x00\x00\x00\x00\x00\x00\x00"))); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := ReadAll(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestReadAllRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.Write([]byte{9, 0, 0, 0, 0, 0, 0, 0})
	if _, err := ReadAll(&buf); err == nil {
		t.Fatal("expected version error")
	}
}

func TestReadAllTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadAll(bytes.NewReader(data[:len(data)-5])); err == nil {
		t.Fatal("expected error for truncated trace")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := noc.NewResponse(42, 16, 3, noc.ClassGPU, noc.SrcL3, 100)
	r := FromPacket(p)
	q := r.Packet()
	if q.ID != p.ID || q.Src != p.Src || q.Dst != p.Dst || q.Class != p.Class ||
		q.Kind != p.Kind || q.Source != p.Source || q.SizeBits != p.SizeBits ||
		q.InjectCycle != p.InjectCycle {
		t.Fatalf("roundtrip lost fields: %+v vs %+v", p, q)
	}
}

type fakeTarget struct {
	pkts   []*noc.Packet
	reject int // reject first N injections
}

func (f *fakeTarget) Inject(p *noc.Packet) bool {
	if f.reject > 0 {
		f.reject--
		return false
	}
	f.pkts = append(f.pkts, p)
	return true
}

func TestRecorderCapturesAccepted(t *testing.T) {
	target := &fakeTarget{reject: 1}
	rec := &Recorder{}
	wrapped := rec.Wrap(target)
	p1 := noc.NewRequest(1, 0, 1, noc.ClassCPU, noc.SrcCPUL1D, 0)
	p2 := noc.NewRequest(2, 0, 1, noc.ClassCPU, noc.SrcCPUL1D, 0)
	if wrapped.Inject(p1) {
		t.Fatal("first inject should be rejected")
	}
	if !wrapped.Inject(p2) {
		t.Fatal("second inject should pass")
	}
	if rec.Len() != 1 || rec.Records()[0].ID != 2 {
		t.Fatalf("recorder captured %v", rec.Records())
	}
}

func TestPlayerReplaysAtCycles(t *testing.T) {
	target := &fakeTarget{}
	player, err := NewPlayer(target, sampleRecords())
	if err != nil {
		t.Fatal(err)
	}
	player.Tick(0)
	if len(target.pkts) != 1 {
		t.Fatalf("cycle 0: %d packets", len(target.pkts))
	}
	player.Tick(15)
	if len(target.pkts) != 1 {
		t.Fatal("nothing due at cycle 15")
	}
	player.Tick(30)
	if len(target.pkts) != 3 {
		t.Fatalf("cycle 30: %d packets", len(target.pkts))
	}
	if !player.Done() {
		t.Fatal("player should be done")
	}
	if player.Injected != 3 {
		t.Fatalf("injected = %d", player.Injected)
	}
}

func TestPlayerRetriesOnBackpressure(t *testing.T) {
	target := &fakeTarget{reject: 2}
	player, _ := NewPlayer(target, sampleRecords())
	player.Tick(0) // rejected
	if player.Done() {
		t.Fatal("should not be done with pending packet")
	}
	player.Tick(1) // rejected again
	player.Tick(2) // succeeds
	if len(target.pkts) != 1 {
		t.Fatalf("packets = %d", len(target.pkts))
	}
	player.Tick(30)
	if !player.Done() || player.Injected != 3 {
		t.Fatalf("done=%v injected=%d", player.Done(), player.Injected)
	}
}

func TestPlayerPreservesOrderUnderStall(t *testing.T) {
	target := &fakeTarget{reject: 1}
	recs := []Record{
		{ID: 1, Src: 0, Dst: 1, SizeBits: 128, InjectCycle: 0},
		{ID: 2, Src: 0, Dst: 1, SizeBits: 128, InjectCycle: 0},
		{ID: 3, Src: 0, Dst: 1, SizeBits: 128, InjectCycle: 1},
	}
	player, _ := NewPlayer(target, recs)
	player.Tick(0)
	player.Tick(1)
	player.Tick(2)
	if len(target.pkts) != 3 {
		t.Fatalf("packets = %d", len(target.pkts))
	}
	for i, p := range target.pkts {
		if p.ID != uint64(i+1) {
			t.Fatalf("order violated: %v", target.pkts)
		}
	}
}

func TestNewPlayerRejectsUnsorted(t *testing.T) {
	recs := []Record{{InjectCycle: 10}, {InjectCycle: 5}}
	if _, err := NewPlayer(&fakeTarget{}, recs); err == nil {
		t.Fatal("expected error for unsorted records")
	}
}

// corruptTrace writes a valid trace then lets tests mangle the bytes.
func validTraceBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteAll(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadAllTruncatedHeader(t *testing.T) {
	raw := validTraceBytes(t)
	// Every prefix shorter than the 16-byte header must fail with a
	// wrapped truncation error, never panic or return records.
	for cut := 0; cut < 16; cut++ {
		_, err := ReadAll(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("header truncated at %d bytes: no error", cut)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("header truncated at %d bytes: err %v lacks EOF cause", cut, err)
		}
	}
}

func TestReadAllBadMagic(t *testing.T) {
	raw := validTraceBytes(t)
	raw[0] = 'X'
	_, err := ReadAll(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic: err = %v", err)
	}
}

func TestReadAllVersionMismatch(t *testing.T) {
	raw := validTraceBytes(t)
	binary.LittleEndian.PutUint32(raw[8:12], Version+7)
	_, err := ReadAll(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("version mismatch: err = %v", err)
	}
}

func TestReadAllCountExceedsFileLength(t *testing.T) {
	raw := validTraceBytes(t)
	// Header declares more records than the file holds.
	binary.LittleEndian.PutUint32(raw[12:16], uint32(len(sampleRecords())+5))
	_, err := ReadAll(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("over-count: no error")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("over-count: err = %v, want wrapped io.ErrUnexpectedEOF", err)
	}
}

func TestReadAllHugeCountDoesNotAllocate(t *testing.T) {
	raw := validTraceBytes(t)
	binary.LittleEndian.PutUint32(raw[12:16], 0xFFFFFFFF)
	_, err := ReadAll(bytes.NewReader(raw))
	if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("huge count: err = %v, want wrapped io.ErrUnexpectedEOF", err)
	}
}

func TestReadAllCountBelowFileLength(t *testing.T) {
	raw := validTraceBytes(t)
	// Header declares fewer records than the file holds: the silent-
	// short-read case. Must refuse, not drop the tail.
	binary.LittleEndian.PutUint32(raw[12:16], uint32(len(sampleRecords())-1))
	_, err := ReadAll(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("under-count: err = %v, want trailing-bytes error", err)
	}
}

func TestReadAllMidRecordTruncation(t *testing.T) {
	raw := validTraceBytes(t)
	// Cut inside the last record's payload.
	_, err := ReadAll(bytes.NewReader(raw[:len(raw)-7]))
	if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-record truncation: err = %v, want wrapped io.ErrUnexpectedEOF", err)
	}
}

func TestReadAllRoundTripStillCleanAfterHardening(t *testing.T) {
	got, err := ReadAll(bytes.NewReader(validTraceBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sampleRecords()) {
		t.Fatalf("round trip lost records: %d vs %d", len(got), len(sampleRecords()))
	}
}

func TestReadAllEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty trace returned %d records", len(got))
	}
}
