// Command stcbench is the repository benchmark: it builds stcd and
// experiments from source, drives them with one seeded workload from a
// single load-generator process, checks every output for correctness,
// and prints each metric by name and unit. With -trace 1 it makes a
// traced run instead and reports per-layer metrics plus a Chrome trace.
//
//	bash bench/run.sh --workload svc-cold --seed 1 --seconds 15 --trace 0
//	cd bench && go run . -workload all -seed 1 -out report.json
//
// See README.md in this directory for the workloads, the metrics and
// the A/B protocol.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds one workload run, set-up and checks included.
const runDeadline = 170 * time.Second

// config is one run's parameters.
type config struct {
	seed    int64
	seconds int
	traced  bool
	size    size
	trace   string // Chrome trace output path (traced runs)
}

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	run  func(ctx context.Context, e *env, c config, r *Report) error
}

var workloads = []workload{
	{"paper-battery", runBattery},
	{"svc-cold", runSvcCold},
	{"analyst", runAnalyst},
	{"whatif", runWhatIf},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stcbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: paper-battery, svc-cold, analyst, whatif, or all")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Int("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	out := flag.String("out", "", "write the stdcelltune-benchreport/1 document(s) here (a JSON list)")
	traceOut := flag.String("traceout", "", "Chrome trace path of a traced run (default <builddir>/trace-<workload>.json)")
	procs := flag.Int("procs", 0, "GOMAXPROCS of the driven programs and the in-process probes (0 = all cores)")
	root := flag.String("root", "", "repository root (default: found above the working directory)")
	buildDir := flag.String("builddir", "", "directory for built programs and scratch (default <root>/.bench_build)")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d: want >= 1", *seconds)
	}
	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("-workload %q: want one of %s or all", *name, strings.Join(workloadNames(), ", "))
	}
	if *root == "" {
		wd, err := os.Getwd()
		if err != nil {
			return err
		}
		if *root, err = findRoot(wd); err != nil {
			return err
		}
	}
	if *buildDir == "" {
		*buildDir = filepath.Join(*root, ".bench_build")
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	e := &env{root: *root, bin: filepath.Join(*buildDir, "bin"), procs: *procs}
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return err
	}
	if err := buildPrograms(ctx, e.root, e.bin); err != nil {
		return err
	}

	var reports []*Report
	failed := false
	for _, w := range selected {
		c := config{seed: *seed, seconds: *seconds, traced: *trace == 1, size: fullSize, trace: *traceOut}
		if c.traced && c.trace == "" {
			c.trace = filepath.Join(*buildDir, "trace-"+w.name+".json")
		}
		r, err := runOne(ctx, e, *buildDir, w, c)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		r.printTable(os.Stdout)
		if err := r.Validate(); err != nil {
			return fmt.Errorf("%s: invalid report: %w", w.name, err)
		}
		failed = failed || !r.Correct || r.Failed > 0
		reports = append(reports, r)
	}
	if *out != "" {
		if err := writeReports(*out, reports); err != nil {
			return err
		}
	}
	if len(reports) == 1 {
		names := e2eMetrics
		if reports[0].Traced {
			names = layerMetrics
		}
		line, err := reports[0].resultLine(names)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if failed {
		return errors.New("a correctness check failed or an operation failed; see the report above")
	}
	return nil
}

// runOne runs a workload in a scratch directory of its own, removed
// afterwards, under the run deadline.
func runOne(ctx context.Context, e *env, buildDir string, w workload, c config) (*Report, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	scratch, err := os.MkdirTemp(buildDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	we := *e
	we.scratch = scratch
	r := newReport(w.name, c.seed, c.seconds, e.procs, c.traced)
	if err := w.run(ctx, &we, c, r); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
