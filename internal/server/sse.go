package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Minimal Server-Sent Events wire support, shared by the daemon's
// stream handlers and pearlbench's -follow mode. Only the subset of the SSE grammar the daemon emits is
// implemented: "id:", "event:" and "data:" fields, comment lines for
// heartbeats, and blank-line frame delimiters.

// SSEFrame is one decoded event.
type SSEFrame struct {
	// ID is the raw id field (the daemon sends ring sequence numbers).
	ID string
	// Event is the event kind ("window", "progress", "end").
	Event string
	// Data is the frame body (multi-line data fields joined with \n).
	Data []byte
}

// writeSSEFrame encodes one buffered ring event. The daemon's bodies
// are single-line JSON, so one data: line always suffices.
func writeSSEFrame(w io.Writer, ev streamEvent) error {
	_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.seq, ev.kind, ev.data)
	return err
}

// writeSSEComment emits a comment line — the heartbeat that keeps
// intermediaries from timing out an idle stream.
func writeSSEComment(w io.Writer, text string) error {
	_, err := fmt.Fprintf(w, ": %s\n\n", text)
	return err
}

// ErrSSEStop lets a DecodeSSE callback end the stream cleanly.
var ErrSSEStop = fmt.Errorf("sse: stop")

// DecodeSSE reads frames from r, invoking fn per complete frame until
// EOF (returns nil), a read error, or fn returning an error (ErrSSEStop
// maps to nil). Comment lines and unknown fields are skipped.
func DecodeSSE(r io.Reader, fn func(SSEFrame) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var fr SSEFrame
	var data [][]byte
	flush := func() error {
		if fr.ID == "" && fr.Event == "" && len(data) == 0 {
			return nil // empty frame (e.g. after a comment)
		}
		fr.Data = bytes.Join(data, []byte("\n"))
		err := fn(fr)
		fr, data = SSEFrame{}, nil
		return err
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				if err == ErrSSEStop {
					return nil
				}
				return err
			}
		case strings.HasPrefix(line, ":"):
			// comment / heartbeat
		case strings.HasPrefix(line, "id:"):
			fr.ID = strings.TrimSpace(line[len("id:"):])
		case strings.HasPrefix(line, "event:"):
			fr.Event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data = append(data, []byte(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// Tolerate a final frame not terminated by a blank line.
	if err := flush(); err != nil && err != ErrSSEStop {
		return err
	}
	return nil
}
