package loadgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Event is one scheduled request: start At (offset from run start) with
// lookup key Key. A []Event is the fully materialized open-loop schedule —
// building it up front is what guarantees the offered load cannot depend on
// response latency.
type Event struct {
	At  time.Duration `json:"at_ns"`
	Key int64         `json:"key"`
}

// BuildEvents zips an arrival process and a key stream into a schedule.
func BuildEvents(a Arrivals, k Keys, horizon time.Duration) []Event {
	offsets := a.Schedule(horizon)
	events := make([]Event, len(offsets))
	for i, t := range offsets {
		events[i] = Event{At: t, Key: k.Next()}
	}
	return events
}

// Trace file format: a JSON header line followed by one "at_ns key" pair
// per line. Line-oriented and human-greppable so recorded production
// traffic can be inspected, truncated, or spliced with standard tools.
//
//	{"willump_trace":1,"events":N}
//	1047 83
//	2210 5
//	...
type traceHeader struct {
	Magic  int `json:"willump_trace"`
	Events int `json:"events"`
}

const traceVersion = 1

// WriteTrace records a schedule to w in the trace file format.
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(traceHeader{Magic: traceVersion, Events: len(events)})
	if err != nil {
		return err
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	for _, e := range events {
		fmt.Fprintf(bw, "%d %d\n", int64(e.At), e.Key)
	}
	return bw.Flush()
}

// ReadTrace parses a trace file back into a schedule; replaying the events
// reproduces the recorded run exactly.
func ReadTrace(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("loadgen: trace header: %w", err)
	}
	var hdr traceHeader
	if err := json.Unmarshal(line, &hdr); err != nil || hdr.Magic != traceVersion {
		return nil, fmt.Errorf("loadgen: not a willump trace file (version %d)", traceVersion)
	}
	events := make([]Event, 0, hdr.Events)
	for {
		var at, key int64
		_, err := fmt.Fscanf(br, "%d %d\n", &at, &key)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("loadgen: trace event %d: %w", len(events), err)
		}
		events = append(events, Event{At: time.Duration(at), Key: key})
	}
	if hdr.Events > 0 && len(events) != hdr.Events {
		return nil, fmt.Errorf("loadgen: trace truncated: header says %d events, read %d", hdr.Events, len(events))
	}
	return events, nil
}

// SaveTrace writes a schedule to path.
func SaveTrace(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadTrace reads a schedule from path.
func LoadTrace(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}
