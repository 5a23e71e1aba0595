package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what every workload needs from its surroundings: where the
// repository is, where the built programs live, a scratch directory of
// its own, and the GOMAXPROCS to run the programs at.
type env struct {
	root    string // repository root
	bin     string // directory holding stcd and experiments
	scratch string // per-run scratch directory, removed at the end
	procs   int    // GOMAXPROCS of driven programs, 0 = inherit
}

// programs are the repository binaries the benchmark drives.
var programs = []string{"stcd", "experiments"}

// buildPrograms compiles the driven programs from the repository source,
// and the benchmark's reference kernel, into dir. Build time is not part
// of any measurement.
func buildPrograms(ctx context.Context, root, dir string) error {
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, p := range programs {
		args = append(args, "./cmd/"+p)
	}
	for _, b := range []struct {
		dir  string
		args []string
	}{
		{root, args},
		{filepath.Join(root, "bench"), []string{"build", "-o", filepath.Join(dir, "refkernel"), "./refkernel"}},
	} {
		cmd := exec.CommandContext(ctx, "go", b.args...)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build: %v\n%s", err, out)
		}
	}
	return nil
}

// findRoot walks up from dir to the directory whose go.mod declares the
// stdcelltune module.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module stdcelltune\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no stdcelltune module root above the working directory")
		}
		dir = parent
	}
}

// command prepares one driven program with the run's GOMAXPROCS; it is
// killed if ctx ends first.
func (e *env) command(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, name), args...)
	cmd.Env = os.Environ()
	if e.procs > 0 {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(e.procs))
	}
	return cmd
}

// stop ends a started process: SIGTERM, then SIGKILL after grace, and
// always waits for it so no process outlives the run.
func stop(cmd *exec.Cmd, grace time.Duration) error {
	if cmd.Process == nil {
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	_ = cmd.Process.Signal(syscall.SIGTERM) // already exited is fine: Wait reports it
	_ = cmd.Process.Signal(syscall.SIGCONT) // a daemon stopped for calibration acts on SIGTERM only once continued
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
		_ = cmd.Process.Kill()
		return <-done
	}
}

// peakRSSMB reads a live process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// exitedRSSMB is the peak resident set (MB) of a process that has been
// waited for.
func exitedRSSMB(cmd *exec.Cmd) float64 {
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return 0
}
