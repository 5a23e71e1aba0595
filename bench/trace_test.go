package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "job", PID: 1, TID: 1, TS: 0, Dur: 100},
		{Name: "stage-a", PID: 1, TID: 2, TS: 10, Dur: 30},  // 10..40
		{Name: "stage-b", PID: 1, TID: 3, TS: 30, Dur: 30},  // 30..60, overlaps stage-a
		{Name: "pool", PID: 1, TID: 4, TS: 12, Dur: 8},      // 12..20, inside stage-a only
		{Name: "other", PID: 2, TID: 1, TS: 0, Dur: 100},    // another process: nests nothing
		{Name: "twin", PID: 1, TID: 5, TS: 70, Dur: 10},     // 70..80
		{Name: "twin-dup", PID: 1, TID: 6, TS: 70, Dur: 10}, // identical interval: child of twin
	}
	want := map[string]int64{
		// job: 100 minus the union of its direct children stage-a, stage-b
		// (10..60) and twin (70..80).
		"job":      100 - 50 - 10,
		"stage-a":  30 - 8,
		"stage-b":  30,
		"pool":     8,
		"other":    100,
		"twin":     0,
		"twin-dup": 10,
	}
	self := selfTimes(spans)
	for i, s := range spans {
		if self[i] != want[s.Name] {
			t.Errorf("%s: self %d, want %d", s.Name, self[i], want[s.Name])
		}
	}
}

func TestUnionLenClips(t *testing.T) {
	iv := [][2]int64{{5, 15}, {0, 3}, {14, 20}, {30, 40}}
	if got := unionLen(iv, 2, 35); got != 1+15+5 { // 2..3, 5..20, 30..35
		t.Errorf("union = %d, want 21", got)
	}
	if unionLen(nil, 0, 10) != 0 {
		t.Error("empty union not zero")
	}
}

func TestTraceLogRoundTrip(t *testing.T) {
	tl := newTraceLog()
	start := tl.epoch.Add(time.Millisecond)
	tl.add("op", "bench", 1, start, start.Add(2*time.Millisecond), nil)
	tl.merge([]span{{Name: "stage", Ph: "X", TS: 10, Dur: 5}}, start)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tl.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := parseSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2 (metadata events dropped)", len(spans))
	}
	if s := spans[1]; s.PID != pidProgram || s.TS != 1000+10 {
		t.Errorf("merged span %+v: want pid %d, ts 1010", s, pidProgram)
	}
	if s := spans[0]; s.PID != pidBench || s.TS != 1000 || s.Dur != 2000 {
		t.Errorf("bench span %+v: want ts 1000 dur 2000", s)
	}
}
