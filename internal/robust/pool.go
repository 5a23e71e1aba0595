package robust

import (
	"context"
	"errors"
	"sync"
	"time"

	"stdcelltune/internal/obs"
)

// Pool metrics, recorded into the process-default obs registry. The
// counters are one atomic add per event — cheap enough to stay always
// on. The latency histograms need two clock reads per task, so they
// only record while obs.TimingEnabled() (set by -trace/-debugaddr);
// the zero-flag pipeline takes no clock reads here.
var (
	poolTasks     = obs.Default().Counter("robust.pool_tasks")
	poolPanics    = obs.Default().Counter("robust.pool_panics")
	poolRejected  = obs.Default().Counter("robust.pool_rejected") // submissions refused by cancellation
	poolQueueWait = obs.Default().HDR("robust.queue_wait")
	poolTaskTime  = obs.Default().HDR("robust.task_time")
)

// Group is a bounded worker pool tied to a context. Tasks submitted
// with Go run on at most the configured number of goroutines; the
// semaphore is acquired by the submitter *before* the goroutine is
// spawned, so at most workers+1 goroutines ever exist regardless of
// how many tasks are queued behind it. A panicking task is recovered
// into a *PanicError; Wait returns every task error joined with
// errors.Join.
type Group struct {
	ctx    context.Context
	sem    chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	errs   []error
	timing bool // snapshot of obs.TimingEnabled() at construction
}

// NewGroup creates a pool of the given width bound to ctx. A width
// below one is clamped to one; a nil ctx means context.Background().
func NewGroup(ctx context.Context, workers int) *Group {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	return &Group{ctx: ctx, sem: make(chan struct{}, workers), timing: obs.TimingEnabled()}
}

// Go submits one task. It blocks until a worker slot is free (bounding
// both goroutine count and submission rate) and returns false without
// running the task if the context is cancelled first. The task receives
// the group context and should return promptly once it is done.
func (g *Group) Go(fn func(ctx context.Context) error) bool {
	var submitted time.Time
	if g.timing {
		submitted = time.Now()
	}
	select {
	case <-g.ctx.Done():
		poolRejected.Add(1)
		g.record(g.ctx.Err())
		return false
	case g.sem <- struct{}{}:
	}
	if g.timing {
		poolQueueWait.Observe(time.Since(submitted))
	}
	poolTasks.Add(1)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() { <-g.sem }()
		var started time.Time
		if g.timing {
			started = time.Now()
		}
		err := Safe(func() error { return fn(g.ctx) })
		if g.timing {
			poolTaskTime.Observe(time.Since(started))
		}
		if err != nil {
			g.record(err)
		}
	}()
	return true
}

func (g *Group) record(err error) {
	if err == nil {
		return
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		poolPanics.Add(1)
	}
	g.mu.Lock()
	// A cancelled context is recorded once, not once per unfinished
	// submission, so Wait's error stays readable.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		for _, e := range g.errs {
			if errors.Is(e, err) {
				g.mu.Unlock()
				return
			}
		}
	}
	g.errs = append(g.errs, err)
	g.mu.Unlock()
}

// Wait blocks until every spawned task has finished and returns all
// recorded errors joined with errors.Join (nil when none failed).
// After Wait returns no group goroutine is left running.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return errors.Join(g.errs...)
}

// ForEachNamed runs n indexed tasks, one pool task each, on a pool of
// the given width and waits for completion, all inside one trace span
// carrying the batch name, the task count and the pool width (one span
// per batch, not per task; with no tracer on ctx the span is a nil
// no-op). Cancellation stops unsubmitted tasks; already-running tasks
// drain before ForEachNamed returns. The returned error joins every
// task error (and the context error, once, if cancelled).
//
// One task per item is for coarse, uneven work — the experiment sweeps,
// Table 3's per-cell tuning — whose items differ by whole syntheses, so
// that a static split would idle a core. Fine-grained index loops use
// ForRanges.
func ForEachNamed(ctx context.Context, name string, workers, n int, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	span := obs.TracerFrom(ctx).Start(name, "pool", "tasks", n, "workers", workers)
	defer span.End()
	g := NewGroup(ctx, workers)
	for i := 0; i < n; i++ {
		i := i
		if !g.Go(func(ctx context.Context) error { return fn(ctx, i) }) {
			break
		}
	}
	return g.Wait()
}

// Split divides [0, n) into at most DefaultWorkers() contiguous,
// non-empty ranges whose sizes differ by at most one: range r is
// [bounds[r], bounds[r+1]). For n <= 0 it returns {0}, no ranges.
func Split(n int) []int {
	k := min(DefaultWorkers(), n)
	if k < 1 {
		return []int{0}
	}
	bounds := make([]int, k+1)
	for r := 1; r <= k; r++ {
		bounds[r] = r * n / k
	}
	return bounds
}

// ForRanges runs fn over the contiguous index ranges [bounds[r],
// bounds[r+1]) and waits for them. It is the fan-out of every
// fine-grained index loop (worst-path backtracking, per-path
// statistical timing, Monte-Carlo rows, the cell fold): a single range
// runs inline on the caller's goroutine, and more ranges run as one
// pool task each, at most DefaultWorkers() at a time. Either way the
// batch opens the same trace span (name, range count, width), a
// panicking range surfaces as a *PanicError, and a range that has not
// started when ctx is cancelled never starts; its context error is
// returned instead. fn should check ctx between items of a long range.
//
// Results must be index-addressed (item i writes slot i), so they do
// not depend on how the ranges fall. Coarse, uneven tasks whose costs
// differ by whole syntheses keep one task per item (ForEachNamed):
// static chunks of them would idle a core.
func ForRanges(ctx context.Context, name string, bounds []int, fn func(ctx context.Context, lo, hi int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	n := max(len(bounds)-1, 0)
	workers := min(n, DefaultWorkers())
	span := obs.TracerFrom(ctx).Start(name, "pool", "tasks", n, "workers", workers)
	defer span.End()
	run := func(ctx context.Context, r int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(ctx, bounds[r], bounds[r+1])
	}
	if n == 1 {
		return Safe(func() error { return run(ctx, 0) })
	}
	g := NewGroup(ctx, workers)
	for r := 0; r < n; r++ {
		if !g.Go(func(ctx context.Context) error { return run(ctx, r) }) {
			break
		}
	}
	return g.Wait()
}
