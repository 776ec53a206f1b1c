// Package trace records and replays packet-injection traces. The ML
// pipeline of the paper is trace-driven ("the feature data is collected
// from a modified network simulator running real network traffic",
// §IV.A); this package provides the equivalent capture layer so a
// workload's injection stream can be stored once and replayed bit-exactly
// into any network configuration.
//
// The binary format is little-endian: a 16-byte header (magic "PEARLTRC",
// u32 version, u32 record count) followed by fixed 40-byte records.
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/noc"
	"repro/internal/sim"
)

// Magic identifies trace files.
const Magic = "PEARLTRC"

// Version is the current format version.
const Version = 1

// Record is one injection event.
type Record struct {
	ID          uint64     `json:"id"`
	Src         int32      `json:"src"`
	Dst         int32      `json:"dst"`
	Class       noc.Class  `json:"class"`
	Kind        noc.Kind   `json:"kind"`
	Source      noc.Source `json:"source"`
	SizeBits    int32      `json:"size_bits"`
	InjectCycle int64      `json:"inject_cycle"`
}

// FromPacket captures a packet's injection-time fields.
func FromPacket(p *noc.Packet) Record {
	return Record{
		ID: p.ID, Src: int32(p.Src), Dst: int32(p.Dst),
		Class: p.Class, Kind: p.Kind, Source: p.Source,
		SizeBits: int32(p.SizeBits), InjectCycle: p.InjectCycle,
	}
}

// Packet reconstructs an injectable packet.
func (r Record) Packet() *noc.Packet {
	return &noc.Packet{
		ID: r.ID, Src: int(r.Src), Dst: int(r.Dst),
		Class: r.Class, Kind: r.Kind, Source: r.Source,
		SizeBits: int(r.SizeBits), InjectCycle: r.InjectCycle,
	}
}

// WriteAll writes a complete trace (header + records) in one pass.
func WriteAll(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(Version)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(records))); err != nil {
		return err
	}
	for _, r := range records {
		if err := writeRecord(bw, r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeRecord(w io.Writer, r Record) error {
	fields := []any{
		r.ID, r.Src, r.Dst, int32(r.Class), int32(r.Kind), int32(r.Source),
		r.SizeBits, r.InjectCycle,
	}
	for _, f := range fields {
		if err := binary.Write(w, binary.LittleEndian, f); err != nil {
			return err
		}
	}
	return nil
}

// ReadAll parses a complete trace.
func ReadAll(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var version, count uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", noEOF(err))
	}
	if version != Version {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", version, Version)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("trace: reading record count: %w", noEOF(err))
	}
	// Cap the initial allocation: count comes from untrusted input, so a
	// corrupt header must not translate into a multi-GB make().
	capHint := count
	if capHint > 4096 {
		capHint = 4096
	}
	records := make([]Record, 0, capHint)
	for i := uint32(0); i < count; i++ {
		var rec Record
		if err := readRecord(br, &rec); err != nil {
			return nil, fmt.Errorf("trace: record %d of declared %d: %w", i, count, noEOF(err))
		}
		records = append(records, rec)
	}
	// A header that undercounts would silently drop records; refuse it.
	if _, err := br.Peek(1); err == nil {
		return nil, fmt.Errorf("trace: trailing bytes after the %d declared records", count)
	} else if err != io.EOF {
		return nil, fmt.Errorf("trace: checking for trailing bytes: %w", err)
	}
	return records, nil
}

// noEOF upgrades a bare io.EOF to io.ErrUnexpectedEOF: inside a
// structure whose header promised more bytes, running dry is a
// truncation, not a clean end of stream.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

func readRecord(r io.Reader, rec *Record) error {
	var class, kind, source int32
	fields := []any{
		&rec.ID, &rec.Src, &rec.Dst, &class, &kind, &source,
		&rec.SizeBits, &rec.InjectCycle,
	}
	for _, f := range fields {
		if err := binary.Read(r, binary.LittleEndian, f); err != nil {
			return err
		}
	}
	rec.Class = noc.Class(class)
	rec.Kind = noc.Kind(kind)
	rec.Source = noc.Source(source)
	return nil
}

// WriteJSON exports a trace as a JSON array (for inspection/tooling).
func WriteJSON(w io.Writer, records []Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(records)
}

// Recorder captures injections as they happen. Attach Wrap around a
// network target; every accepted packet is recorded.
type Recorder struct {
	records []Record
}

// Wrap returns a Target-compatible injector that records accepted
// packets into the recorder before forwarding to next. The record's
// InjectCycle is the acceptance time (the network stamps EnqueueCycle on
// success), not the demand-creation time, so traces stay sorted even
// when packets were retried after buffer-full rejections.
func (rec *Recorder) Wrap(next interface {
	Inject(p *noc.Packet) bool
}) InjectFunc {
	return func(p *noc.Packet) bool {
		if !next.Inject(p) {
			return false
		}
		r := FromPacket(p)
		r.InjectCycle = p.EnqueueCycle
		rec.records = append(rec.records, r)
		return true
	}
}

// InjectFunc adapts a function to the network-target shape.
type InjectFunc func(p *noc.Packet) bool

// Inject calls the function.
func (f InjectFunc) Inject(p *noc.Packet) bool { return f(p) }

// Records returns the captured trace.
func (rec *Recorder) Records() []Record { return rec.records }

// Len returns the captured record count.
func (rec *Recorder) Len() int { return len(rec.records) }

// Player replays a trace into a target network, injecting each record at
// its original cycle (retrying while the input buffer is full).
type Player struct {
	target interface {
		Inject(p *noc.Packet) bool
	}
	records []Record
	next    int
	pending []*noc.Packet

	// Injected counts successfully replayed packets.
	Injected uint64
}

// NewPlayer builds a replayer; records must be sorted by InjectCycle.
func NewPlayer(target interface {
	Inject(p *noc.Packet) bool
}, records []Record) (*Player, error) {
	for i := 1; i < len(records); i++ {
		if records[i].InjectCycle < records[i-1].InjectCycle {
			return nil, errors.New("trace: records not sorted by cycle")
		}
	}
	return &Player{target: target, records: records}, nil
}

// Tick injects every record due this cycle, plus retries from previous
// cycles.
func (p *Player) Tick(cycle int64) {
	// Retry stalled packets first to preserve order.
	keep := p.pending[:0]
	for _, pkt := range p.pending {
		if !p.target.Inject(pkt) {
			keep = append(keep, pkt)
			continue
		}
		p.Injected++
	}
	p.pending = keep
	for p.next < len(p.records) && p.records[p.next].InjectCycle <= cycle {
		pkt := p.records[p.next].Packet()
		p.next++
		if len(p.pending) > 0 || !p.target.Inject(pkt) {
			p.pending = append(p.pending, pkt)
			continue
		}
		p.Injected++
	}
}

// Done reports whether every record has been injected.
func (p *Player) Done() bool {
	return p.next >= len(p.records) && len(p.pending) == 0
}

var _ sim.Component = (*Player)(nil)
