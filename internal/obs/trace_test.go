package obs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock: the golden trace depends only on
// the Advance calls in the test, never on the wall clock.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1000, 0)} }
func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

// buildGoldenTrace replays a fixed scenario with nested and overlapping
// spans: an outer flow span, a nested synth span that closes before two
// pool spans open concurrently. Lane assignment and timestamps are fully
// determined by the fake clock.
func buildGoldenTrace() *Tracer {
	clk := newFakeClock()
	tr := NewTracer(clk.Now)

	outer := tr.Start("flow", "phase", "samples", 40)
	clk.Advance(time.Millisecond)

	inner := tr.Start("synth", "phase") // nested: lane 2
	clk.Advance(2 * time.Millisecond)
	inner.End()

	clk.Advance(time.Millisecond)
	a := tr.Start("stattime.paths", "pool", "tasks", 3) // reuses lane 2
	b := tr.Start("variation.instances", "pool")        // overlaps: lane 3
	clk.Advance(5 * time.Millisecond)
	a.End()
	b.End()

	outer.Set("note", "done")
	clk.Advance(time.Millisecond)
	outer.End()
	return tr
}

func TestGoldenChromeTrace(t *testing.T) {
	tr := buildGoldenTrace()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test ./internal/obs)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace diverged from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// The lane allocator must give nested/overlapping spans distinct Chrome
// tids and hand freed lanes back lowest-first.
func TestLaneAssignment(t *testing.T) {
	tr := buildGoldenTrace()
	lanes := map[string]int{}
	for _, ev := range tr.events {
		lanes[ev.Name] = ev.TID
	}
	want := map[string]int{
		"flow":                1,
		"synth":               2,
		"stattime.paths":      2, // synth's lane, freed before it started
		"variation.instances": 3,
	}
	for name, lane := range want {
		if lanes[name] != lane {
			t.Errorf("%s on lane %d want %d", name, lanes[name], lane)
		}
	}
	if n := tr.EventCount(); n != 4 {
		t.Errorf("EventCount %d want 4", n)
	}
}

// A nil tracer (tracing off) must be safe everywhere and cost nothing:
// nil spans from TracerFrom on a bare context no-op End and Set.
func TestNilTracerIsNoOp(t *testing.T) {
	tr := TracerFrom(context.Background())
	if tr != nil {
		t.Fatalf("bare context yielded tracer %v", tr)
	}
	span := tr.Start("anything", "cat", "k", "v")
	if span != nil {
		t.Fatalf("nil tracer returned span %v", span)
	}
	span.Set("k", 1) // must not panic
	span.End()       // must not panic
	if tr.EventCount() != 0 {
		t.Error("nil tracer counted events")
	}
	if tr.Active() != nil {
		t.Error("nil tracer has active spans")
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Error("WriteChromeTrace on nil tracer did not error")
	}
}

func TestWithTracerRoundTrip(t *testing.T) {
	tr := NewTracer(newFakeClock().Now)
	ctx := WithTracer(context.Background(), tr)
	if got := TracerFrom(ctx); got != tr {
		t.Errorf("TracerFrom = %p want %p", got, tr)
	}
	// Attaching nil explicitly behaves like no tracer.
	if got := TracerFrom(WithTracer(context.Background(), nil)); got != nil {
		t.Errorf("nil attachment yielded %p", got)
	}
}

func TestActiveOrdersLongestFirst(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracer(clk.Now)
	old := tr.Start("old", "phase")
	clk.Advance(10 * time.Millisecond)
	young := tr.Start("young", "phase")
	clk.Advance(time.Millisecond)

	act := tr.Active()
	if len(act) != 2 {
		t.Fatalf("%d active spans want 2", len(act))
	}
	if act[0].Name != "old" || act[1].Name != "young" {
		t.Errorf("order %s,%s want old,young", act[0].Name, act[1].Name)
	}
	if act[0].ElapsedMS != 11 || act[1].ElapsedMS != 1 {
		t.Errorf("elapsed %v,%v want 11,1", act[0].ElapsedMS, act[1].ElapsedMS)
	}
	young.End()
	old.End()
	if len(tr.Active()) != 0 {
		t.Error("spans still active after End")
	}
}

// Concurrent span traffic through one tracer must be race-free (run
// under -race) and lose no events.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(nil)
	done := make(chan struct{})
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				s := tr.Start("task", "pool")
				s.Set("i", i)
				s.End()
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if n := tr.EventCount(); n != workers*per {
		t.Errorf("EventCount %d want %d", n, workers*per)
	}
}

func TestArgMap(t *testing.T) {
	m := argMap([]any{"a", 1, 2, "b", "dangling"})
	if m["a"] != 1 {
		t.Errorf("a = %v", m["a"])
	}
	if m["2"] != "b" {
		t.Errorf("non-string key folded to %v", m["2"])
	}
	if v, ok := m["dangling"]; !ok || v != nil {
		t.Errorf("dangling key = %v ok=%v, want nil entry", v, ok)
	}
}
