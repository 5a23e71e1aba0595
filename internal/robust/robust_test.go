package robust

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stdcelltune/internal/obs"
)

func TestGroupRunsEverything(t *testing.T) {
	g := NewGroup(context.Background(), 4)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		if !g.Go(func(context.Context) error { n.Add(1); return nil }) {
			t.Fatal("Go refused without cancellation")
		}
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Errorf("ran %d tasks, want 100", n.Load())
	}
}

func TestGroupBoundsConcurrency(t *testing.T) {
	const workers = 3
	g := NewGroup(context.Background(), workers)
	var cur, peak atomic.Int64
	for i := 0; i < 50; i++ {
		g.Go(func(context.Context) error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent tasks, bound is %d", p, workers)
	}
}

func TestGroupPanicBecomesError(t *testing.T) {
	g := NewGroup(context.Background(), 2)
	g.Go(func(context.Context) error { panic("boom") })
	g.Go(func(context.Context) error { return nil })
	err := g.Wait()
	if err == nil {
		t.Fatal("panic swallowed")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Value != "boom" {
		t.Errorf("panic value %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "robust") {
		t.Error("stack not captured")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("message %q does not mention the panic", err)
	}
}

func TestGroupJoinsAllErrors(t *testing.T) {
	g := NewGroup(context.Background(), 2)
	for i := 0; i < 5; i++ {
		i := i
		g.Go(func(context.Context) error {
			if i%2 == 0 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
	}
	err := g.Wait()
	if err == nil {
		t.Fatal("errors lost")
	}
	for _, want := range []string{"task 0", "task 2", "task 4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

func TestGroupCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(ctx, 1)
	started := make(chan struct{})
	release := make(chan struct{})
	if !g.Go(func(context.Context) error {
		close(started)
		<-release
		return nil
	}) {
		t.Fatal("first task refused")
	}
	<-started
	cancel()
	// The pool width is 1 and the single slot is occupied, so the next
	// submission must fail via the cancelled context, not block forever.
	if g.Go(func(context.Context) error { return errors.New("must not run") }) {
		t.Fatal("Go accepted a task after cancellation")
	}
	close(release)
	err := g.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Wait error %v, want context.Canceled", err)
	}
	if strings.Contains(fmt.Sprint(err), "must not run") {
		t.Error("rejected task ran anyway")
	}
}

func TestGroupCancellationRecordedOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := NewGroup(ctx, 2)
	for i := 0; i < 10; i++ {
		g.Go(func(context.Context) error { return nil })
	}
	err := g.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := strings.Count(err.Error(), context.Canceled.Error()); n != 1 {
		t.Errorf("context error recorded %d times, want once: %v", n, err)
	}
}

func TestNewGroupDefaults(t *testing.T) {
	g := NewGroup(nil, 0) // nil ctx and zero width must both be usable
	ok := g.Go(func(ctx context.Context) error {
		if ctx == nil {
			return errors.New("nil ctx delivered to task")
		}
		return nil
	})
	if !ok {
		t.Fatal("task refused")
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestForEach(t *testing.T) {
	seen := make([]bool, 64)
	err := ForEachNamed(context.Background(), "test.batch", 8, len(seen), func(_ context.Context, i int) error {
		seen[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d never ran", i)
		}
	}
}

func TestForEachStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEachNamed(ctx, "test.batch", 1, 1000, func(_ context.Context, i int) error {
		if i == 3 {
			cancel()
		}
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop submissions (%d ran)", n)
	}
}

func TestSplitTilesRange(t *testing.T) {
	workers := DefaultWorkers()
	for _, n := range []int{0, 1, workers - 1, workers, workers + 1, 7, 50, 1000} {
		bounds := Split(n)
		if bounds[0] != 0 {
			t.Fatalf("n=%d: bounds start at %d", n, bounds[0])
		}
		if last := bounds[len(bounds)-1]; last != max(n, 0) {
			t.Fatalf("n=%d: bounds end at %d", n, last)
		}
		ranges := len(bounds) - 1
		if want := min(n, workers); ranges != max(want, 0) {
			t.Fatalf("n=%d: %d ranges, want %d", n, ranges, want)
		}
		lo, hi := n, 0
		for r := 0; r < ranges; r++ {
			size := bounds[r+1] - bounds[r]
			if size < 1 {
				t.Fatalf("n=%d: range %d is empty (%v)", n, r, bounds)
			}
			lo, hi = min(lo, size), max(hi, size)
		}
		if ranges > 0 && hi-lo > 1 {
			t.Fatalf("n=%d: range sizes %d..%d are not balanced (%v)", n, lo, hi, bounds)
		}
	}
}

func TestForRangesRunsEveryIndexOnce(t *testing.T) {
	for _, bounds := range [][]int{Split(1000), Split(1), {0, 3, 4, 10}, {0, 1, 2, 3, 4, 5, 6, 7, 8}} {
		n := bounds[len(bounds)-1]
		seen := make([]atomic.Int32, n)
		err := ForRanges(context.Background(), "test.ranges", bounds, func(_ context.Context, lo, hi int) error {
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("bounds %v: index %d ran %d times", bounds, i, c)
			}
		}
	}
}

func TestForRangesNoRangesRunsNothing(t *testing.T) {
	err := ForRanges(context.Background(), "test.ranges", Split(0), func(context.Context, int, int) error {
		t.Error("a range ran for n = 0")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// goid returns the current goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestForRangesSingleRangeRunsInline(t *testing.T) {
	caller := goid()
	var ranIn string
	err := ForRanges(context.Background(), "test.ranges", []int{0, 5}, func(_ context.Context, lo, hi int) error {
		ranIn = goid()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ranIn != caller {
		t.Fatalf("single range ran on goroutine %s, caller is %s", ranIn, caller)
	}
}

func TestForRangesCancelStartsNoLaterRange(t *testing.T) {
	// One CPU: the pool is one wide, so ranges run in order, one at a
	// time, and "later" is well defined.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bounds := make([]int, 101) // 100 ranges of one index each
	for r := range bounds {
		bounds[r] = r
	}
	ctx, cancel := context.WithCancel(context.Background())
	var started []int
	err := ForRanges(ctx, "test.ranges", bounds, func(_ context.Context, lo, hi int) error {
		started = append(started, lo)
		if lo == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if want := []int{0, 1, 2, 3}; fmt.Sprint(started) != fmt.Sprint(want) {
		t.Errorf("ranges %v started, want %v", started, want)
	}

	// Cancelled before the call: even the inline single range never starts.
	err = ForRanges(ctx, "test.ranges", []int{0, 5}, func(context.Context, int, int) error {
		t.Error("range started on a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("inline: want context.Canceled, got %v", err)
	}
}

func TestForRangesPanicBecomesError(t *testing.T) {
	for _, bounds := range [][]int{{0, 4}, {0, 2, 4}} {
		err := ForRanges(context.Background(), "test.ranges", bounds, func(_ context.Context, lo, hi int) error {
			if lo == 0 {
				panic("range boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "range boom" {
			t.Fatalf("bounds %v: want *PanicError(range boom), got %T: %v", bounds, err, err)
		}
	}
}

func TestForRangesSpanCarriesBatchName(t *testing.T) {
	for _, bounds := range [][]int{{0, 4}, {0, 2, 4}} {
		tr := obs.NewTracer(nil)
		var ended []obs.SpanEvent
		tr.SetSink(func(e obs.SpanEvent) { ended = append(ended, e) })
		ctx := obs.WithTracer(context.Background(), tr)
		if err := ForRanges(ctx, "test.batch_name", bounds, func(context.Context, int, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if len(ended) != 1 {
			t.Fatalf("bounds %v: %d spans, want one batch span", bounds, len(ended))
		}
		e := ended[0]
		if e.Name != "test.batch_name" || e.Cat != "pool" {
			t.Fatalf("bounds %v: span %q/%q, want test.batch_name/pool", bounds, e.Name, e.Cat)
		}
		if e.Args["tasks"] != len(bounds)-1 {
			t.Errorf("bounds %v: span tasks = %v, want %d", bounds, e.Args["tasks"], len(bounds)-1)
		}
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	p := DefaultPolicy()
	var slept []time.Duration
	p.Sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	calls := 0
	err := Retry(context.Background(), p, func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("calls %d want 3", calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	// With 20% jitter the second sleep must be near double the base.
	lo, hi := 16*time.Millisecond, 24*time.Millisecond
	if slept[1] < lo || slept[1] > hi {
		t.Errorf("second backoff %v outside [%v, %v]", slept[1], lo, hi)
	}
}

func TestRetryExhaustion(t *testing.T) {
	p := Policy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }}
	base := errors.New("always fails")
	calls := 0
	err := Retry(context.Background(), p, func(context.Context) error { calls++; return base })
	if calls != 3 {
		t.Errorf("calls %d want 3", calls)
	}
	if !errors.Is(err, base) {
		t.Errorf("terminal error does not wrap the last attempt: %v", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("message %q missing attempt count", err)
	}
}

func TestRetryPermanentStopsImmediately(t *testing.T) {
	p := Policy{MaxAttempts: 10, Sleep: func(context.Context, time.Duration) error { return nil }}
	base := errors.New("bad input")
	calls := 0
	err := Retry(context.Background(), p, func(context.Context) error {
		calls++
		return Permanent(base)
	})
	if calls != 1 {
		t.Errorf("permanent error retried: %d calls", calls)
	}
	if !errors.Is(err, base) {
		t.Errorf("lost the wrapped cause: %v", err)
	}
	if !IsPermanent(err) {
		t.Error("IsPermanent lost through return")
	}
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) must stay nil")
	}
	if IsPermanent(base) {
		t.Error("unmarked error reported permanent")
	}
}

func TestRetryRecoversPanics(t *testing.T) {
	p := Policy{MaxAttempts: 2, Sleep: func(context.Context, time.Duration) error { return nil }}
	calls := 0
	err := Retry(context.Background(), p, func(context.Context) error {
		calls++
		if calls == 1 {
			panic("flaky")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("panic on first attempt should be retried: %v", err)
	}
	if calls != 2 {
		t.Errorf("calls %d want 2", calls)
	}
}

func TestRetryHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 100, Sleep: func(ctx context.Context, _ time.Duration) error {
		cancel()
		return ctx.Err()
	}}
	base := errors.New("transient")
	err := Retry(ctx, p, func(context.Context) error { return base })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
	if !errors.Is(err, base) {
		t.Errorf("last attempt error dropped on cancel: %v", err)
	}
}

func TestRetryBackoffCap(t *testing.T) {
	p := Policy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 30 * time.Millisecond, Multiplier: 2}
	var slept []time.Duration
	p.Sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	_ = Retry(context.Background(), p, func(context.Context) error { return errors.New("x") })
	if len(slept) != 7 {
		t.Fatalf("slept %d times, want 7", len(slept))
	}
	for i, d := range slept {
		if d > 30*time.Millisecond {
			t.Errorf("sleep %d = %v exceeds cap", i, d)
		}
	}
	if slept[6] != 30*time.Millisecond {
		t.Errorf("late backoff %v, want cap 30ms", slept[6])
	}
}

func TestJitteredBounds(t *testing.T) {
	d := 100 * time.Millisecond
	for i := 0; i < 200; i++ {
		j := jittered(d, 0.2)
		if j < 80*time.Millisecond || j > 120*time.Millisecond {
			t.Fatalf("jittered %v outside +/-20%% of %v", j, d)
		}
	}
	if jittered(d, 0) != d {
		t.Error("zero jitter must be identity")
	}
}

func TestSafePassesThrough(t *testing.T) {
	base := errors.New("plain")
	if err := Safe(func() error { return base }); err != base {
		t.Errorf("plain error mangled: %v", err)
	}
	if err := Safe(func() error { return nil }); err != nil {
		t.Errorf("nil turned into %v", err)
	}
}

func TestQuarantine(t *testing.T) {
	q := NewQuarantine("statlib")
	q.Total = 10
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Add(fmt.Sprintf("CELL_%d", i), "non-finite sigma")
			q.Add("CELL_0", "duplicate reason must lose") // dedup race check
		}()
	}
	wg.Wait()
	if q.Len() != 4 {
		t.Fatalf("len %d want 4", q.Len())
	}
	if !q.Has("CELL_2") || q.Has("CELL_9") {
		t.Error("Has wrong")
	}
	if f := q.Fraction(); f != 0.4 {
		t.Errorf("fraction %g want 0.4", f)
	}
	if err := q.Check(0.5); err != nil {
		t.Errorf("40%% under a 50%% limit must pass: %v", err)
	}
	if err := q.Check(0.3); err == nil {
		t.Error("40% over a 30% limit must fail")
	}
	es := q.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].Name > es[i].Name {
			t.Fatal("entries not sorted")
		}
	}
	// CELL_1 only ever gets one reason; first-wins must have kept it.
	if es[1].Name != "CELL_1" || es[1].Reason != "non-finite sigma" {
		t.Errorf("entry 1 = %+v", es[1])
	}
	r := q.Render()
	if !strings.Contains(r, "4 of 10") || !strings.Contains(r, "CELL_3") {
		t.Errorf("render missing content:\n%s", r)
	}
}

func TestQuarantineNilSafe(t *testing.T) {
	var q *Quarantine
	if q.Has("x") || q.Len() != 0 || q.Entries() != nil || q.Fraction() != 0 {
		t.Error("nil quarantine accessors must be inert")
	}
	if err := q.Check(0); err != nil {
		t.Error("nil quarantine must pass any check")
	}
}

func TestQuarantineEmptyRender(t *testing.T) {
	q := NewQuarantine("tuner")
	if r := q.Render(); !strings.Contains(r, "no cells quarantined") || !strings.Contains(r, "tuner") {
		t.Errorf("all-clear render wrong: %q", r)
	}
}
