// Package robust provides the fault-tolerance primitives the experiment
// pipeline is built on: a bounded, context-cancellable worker pool with
// per-task panic recovery and full error aggregation, and its two
// fan-outs — ForRanges for fine-grained index loops, ForEachNamed for
// coarse, uneven tasks (pool.go) — a
// retry helper with exponential backoff and jitter for transient
// failures (retry.go), and the quarantine report used to degrade
// gracefully when individual library cells turn out to be unusable
// instead of failing a whole run (quarantine.go).
//
// The design contract, shared by every consumer (see DESIGN.md,
// "Failure semantics"):
//
//   - A panic inside a pooled task surfaces as a *PanicError on the
//     caller, never as a process crash.
//   - Cancelling the context stops new work promptly; running tasks
//     finish and the pool drains before returning, so no goroutines
//     leak past Wait.
//   - All task errors are preserved via errors.Join, not just the
//     first one.
package robust

import (
	"fmt"
	"runtime"
)

// PanicError wraps a panic recovered from a pooled task, carrying the
// panic value and the stack at the point of the panic.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("robust: task panicked: %v", e.Value)
}

// Safe invokes fn, converting a panic into a *PanicError. The stack is
// captured at recovery time so the panic site is preserved in reports.
func Safe(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Value: r, Stack: buf}
		}
	}()
	return fn()
}

// DefaultWorkers returns the default pool width: one worker per
// available CPU.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}
