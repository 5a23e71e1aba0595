package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// refNominalMs is the reference kernel's median time on the host the
// bounds were set on (2-CPU Xeon, go1.24). Timings are reported scaled
// to that speed, so on that host they read as wall time.
const refNominalMs = 45.0

// Calibration sampling: kernelRuns runs before a workload starts its
// programs and again after they exit; during the measured window one run
// per calibrationGap of load, taken between operations.
const (
	kernelRuns     = 5
	calibrationGap = time.Second
)

// calibrator measures the host's speed with the reference kernel
// (refkernel/main.go) while a workload runs. The host this benchmark was
// sized on drifts by tens of percent over minutes, and back-to-back
// kernel runs already differ by 15%, so a few samples at the ends of a
// run cannot stand for the window: the kernel is sampled through it, and
// every timing is divided by the median.
//
// The kernel is a process of its own, and it runs only while no driven
// program does: before the programs start, after they exit, and between
// operations with the daemon stopped (SIGSTOP) for the duration. Nothing
// the benchmarked programs do can move its time.
type calibrator struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Scanner
	last    time.Time     // end of the last sample
	paused  time.Duration // time spent sampling between operations
	samples []float64
}

// startCalibrator starts the kernel process; it waits, idle, for runs.
func (e *env) startCalibrator(ctx context.Context) (*calibrator, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, "refkernel"))
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference kernel: %w", err)
	}
	return &calibrator{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// close ends the kernel process and waits for it.
func (c *calibrator) close() {
	c.in.Close()
	_ = c.cmd.Wait() // it exits at the end of its input; the status carries no verdict
}

// run times n kernel runs.
func (c *calibrator) run(n int) error {
	if _, err := fmt.Fprintf(c.in, "%d\n", n); err != nil {
		return fmt.Errorf("reference kernel: %w", err)
	}
	for i := 0; i < n; i++ {
		if !c.out.Scan() {
			return fmt.Errorf("reference kernel: %v", errors.Join(c.out.Err(), io.ErrUnexpectedEOF))
		}
		v, err := strconv.ParseFloat(c.out.Text(), 64)
		if err != nil {
			return fmt.Errorf("reference kernel: %w", err)
		}
		c.samples = append(c.samples, v)
	}
	c.last = time.Now()
	return nil
}

// sample takes kernelRuns runs; workloads call it before their programs
// start and after they exit.
func (c *calibrator) sample() error { return c.run(kernelRuns) }

// between takes one run per calibrationGap since the last sample, if a
// gap has passed, with p — the running daemon, or nil when no program is
// alive — stopped meanwhile. Workloads call it between operations; the
// time it takes is excluded from the load's wall time.
func (c *calibrator) between(p *os.Process) error {
	t0 := time.Now()
	n := int(t0.Sub(c.last) / calibrationGap)
	if n == 0 {
		return nil
	}
	if p != nil {
		if err := p.Signal(syscall.SIGSTOP); err != nil {
			return fmt.Errorf("stop daemon for calibration: %w", err)
		}
	}
	err := c.run(n)
	if p != nil {
		if cerr := p.Signal(syscall.SIGCONT); cerr != nil && err == nil {
			err = fmt.Errorf("continue daemon after calibration: %w", cerr)
		}
	}
	c.paused += time.Since(t0)
	return err
}

// refMs is the median kernel time of the run.
func (c *calibrator) refMs() float64 { return median(c.samples) }

// scale is the factor that converts this run's wall timings to the
// nominal host's speed.
func (c *calibrator) scale() float64 { return refNominalMs / c.refMs() }
