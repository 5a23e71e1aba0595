package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one complete ("X") Chrome trace event; times are µs.
type span struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func (s span) end() int64 { return s.TS + s.Dur }

type chromeTrace struct {
	TraceEvents []span `json:"traceEvents"`
}

// parseSpans decodes a Chrome trace and keeps its complete spans.
func parseSpans(data []byte) ([]span, error) {
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	var out []span
	for _, s := range tr.TraceEvents {
		if s.Ph == "X" {
			out = append(out, s)
		}
	}
	return out, nil
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. A span's parent is the
// shortest other span of the same process whose interval contains it
// (among identical intervals the earlier span is the parent). Children
// may overlap each other — pool work on parallel lanes — and are
// counted once.
func selfTimes(spans []span) []int64 {
	parent := make([]int, len(spans))
	for i, c := range spans {
		parent[i] = -1
		for j, p := range spans {
			if i == j || p.PID != c.PID || p.TS > c.TS || p.end() < c.end() {
				continue
			}
			if p.Dur == c.Dur && p.TS == c.TS && j > i {
				continue
			}
			if parent[i] < 0 || p.Dur < spans[parent[i]].Dur {
				parent[i] = j
			}
		}
	}
	children := make([][][2]int64, len(spans))
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], [2]int64{spans[i].TS, spans[i].end()})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.Dur - unionLen(children[i], s.TS, s.end())
	}
	return self
}

// unionLen is the length of the union of intervals clipped to [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range s {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// Process ids of the written trace: the driven program and the load
// generator.
const (
	pidProgram = 1
	pidBench   = 2
)

// traceLog collects the benchmark's own spans plus spans merged from
// the program, on one timeline starting at epoch.
type traceLog struct {
	epoch time.Time
	spans []span
}

func newTraceLog() *traceLog { return &traceLog{epoch: time.Now()} }

func (t *traceLog) us(at time.Time) int64 { return at.Sub(t.epoch).Microseconds() }

// add records a load-generator span.
func (t *traceLog) add(name, cat string, tid int, start, end time.Time, args map[string]any) {
	t.spans = append(t.spans, span{Name: name, Cat: cat, Ph: "X", TS: t.us(start),
		Dur: end.Sub(start).Microseconds(), PID: pidBench, TID: tid, Args: args})
}

// merge adds program spans whose own clock starts at origin.
func (t *traceLog) merge(spans []span, origin time.Time) {
	off := t.us(origin)
	for _, s := range spans {
		s.TS += off
		s.PID = pidProgram
		t.spans = append(t.spans, s)
	}
}

// write emits the Chrome trace-event JSON (chrome://tracing, Perfetto).
func (t *traceLog) write(path string) error {
	meta := []span{
		{Name: "process_name", Ph: "M", PID: pidProgram, Args: map[string]any{"name": "program"}},
		{Name: "process_name", Ph: "M", PID: pidBench, Args: map[string]any{"name": "load generator"}},
	}
	data, err := json.Marshal(chromeTrace{TraceEvents: append(meta, t.spans...)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
