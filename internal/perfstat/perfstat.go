// Package perfstat instruments the experiment pipeline with per-phase
// wall-time and allocation counters and defines the benchmark JSON
// schema (BENCH_PR7.json, and the earlier BENCH_PR*.json ledgers) the
// perf trajectory is tracked in. The
// collector is cheap enough to stay always-on in exp.Flow; the JSON
// file is the artifact later scaling PRs are judged against.
package perfstat

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase is one accumulated pipeline phase.
type Phase struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`   // times the phase ran
	WallNS int64  `json:"wall_ns"` // total wall time
	Allocs int64  `json:"allocs"`  // heap objects allocated during the phase
	Bytes  int64  `json:"bytes"`   // heap bytes allocated during the phase

	// AllocsApprox marks phases whose windows overlapped another open
	// window at least once. runtime.ReadMemStats deltas are
	// process-global, so concurrently open phases each absorb the
	// other's allocations — the wall column stays exact, the alloc
	// columns become an upper bound. Report() flags these rows.
	AllocsApprox bool `json:"allocs_approx,omitempty"`
}

// WallSeconds returns the accumulated wall time in seconds.
func (p Phase) WallSeconds() float64 { return float64(p.WallNS) / 1e9 }

// Collector accumulates named phases. It is safe for concurrent use;
// overlapping phases each get the full wall time of their own window.
// Allocation deltas are process-wide (runtime.ReadMemStats), so two
// windows open at the same time double-count each other's allocations;
// the collector detects exactly this and marks every window that ever
// overlapped another as AllocsApprox, so Report() and the bench JSON
// distinguish exact rows from upper bounds instead of silently mixing
// them.
type Collector struct {
	mu     sync.Mutex
	phases map[string]*Phase
	order  []string
	open   int   // windows currently open
	opens  int64 // windows ever opened (overlap detection epoch)
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{phases: make(map[string]*Phase)}
}

// Start opens a phase window and returns the function that closes it,
// folding the elapsed wall time and allocation deltas into the named
// phase:
//
//	defer c.Start("synth")()
//
// The closer is idempotent: calls after the first are no-ops. Without
// that guard a double-closed window (a `defer stop()` paired with an
// explicit stop() on an early-return path) would drive the open-window
// count negative and every later overlap would silently go unflagged —
// alloc columns reported exact when they are upper bounds.
func (c *Collector) Start(name string) func() {
	c.mu.Lock()
	overlapAtStart := c.open > 0
	c.open++
	c.opens++
	epoch := c.opens
	c.mu.Unlock()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	closed := false
	return func() {
		wall := time.Since(t0)
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		c.mu.Lock()
		defer c.mu.Unlock()
		if closed {
			return
		}
		closed = true
		c.open--
		// The window overlapped if another was already open when it
		// started, or any window opened before it closed.
		overlapped := overlapAtStart || c.opens != epoch
		p, ok := c.phases[name]
		if !ok {
			p = &Phase{Name: name}
			c.phases[name] = p
			c.order = append(c.order, name)
		}
		p.Count++
		p.WallNS += wall.Nanoseconds()
		p.Allocs += int64(m1.Mallocs - m0.Mallocs)
		p.Bytes += int64(m1.TotalAlloc - m0.TotalAlloc)
		if overlapped {
			p.AllocsApprox = true
		}
	}
}

// Phases returns a copy of the accumulated phases in first-start order.
func (c *Collector) Phases() []Phase {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Phase, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, *c.phases[name])
	}
	return out
}

// Report renders the phases as an aligned text table.
func (c *Collector) Report() string {
	phases := c.Phases()
	if len(phases) == 0 {
		return "perfstat: no phases recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %7s %12s %14s %14s\n", "phase", "runs", "wall", "allocs", "bytes")
	anyApprox := false
	for _, p := range phases {
		mark := " "
		if p.AllocsApprox {
			mark, anyApprox = "~", true
		}
		fmt.Fprintf(&b, "%-16s %7d %11.3fs %13d%s %13d%s\n",
			p.Name, p.Count, p.WallSeconds(), p.Allocs, mark, p.Bytes, mark)
	}
	if anyApprox {
		b.WriteString("~ alloc columns approximate: windows overlapped concurrent phases (ReadMemStats deltas are process-global)\n")
	}
	return b.String()
}

// Schema identifies the benchmark JSON (BENCH_PR*.json) layout.
const Schema = "stdcelltune-bench/1"

// BenchResult is one benchmark's numbers, with the optional seed
// baseline it is compared against.
type BenchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`

	// Baseline* hold the same metrics measured at the seed (pre-PR)
	// implementation; Speedup is baseline/current ns. Zero when no
	// baseline was recorded.
	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineBytesPerOp  float64 `json:"baseline_bytes_per_op,omitempty"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op,omitempty"`
	Speedup             float64 `json:"speedup,omitempty"`
}

// BenchFile is the serialized benchmark trajectory.
type BenchFile struct {
	Schema     string                 `json:"schema"`
	Note       string                 `json:"note,omitempty"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
	Phases     []Phase                `json:"phases,omitempty"`
}

// NewBenchFile returns an empty file with the current schema tag.
func NewBenchFile() *BenchFile {
	return &BenchFile{Schema: Schema, Benchmarks: make(map[string]BenchResult)}
}

// ReadBenchFile loads a benchmark file; a missing path returns an empty
// file so callers can merge unconditionally.
func ReadBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewBenchFile(), nil
	}
	if err != nil {
		return nil, err
	}
	f := NewBenchFile()
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("perfstat: %s: %w", path, err)
	}
	if f.Benchmarks == nil {
		f.Benchmarks = make(map[string]BenchResult)
	}
	return f, nil
}

// Write serializes the file as stable, indented JSON (map keys sort, so
// regeneration is diff-friendly).
func (f *BenchFile) Write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Merge folds parsed benchmark numbers into the file. With baseline
// true the numbers land in the Baseline* fields (preserving any current
// numbers); otherwise they become the current numbers and Speedup is
// recomputed against whatever baseline is already recorded.
func (f *BenchFile) Merge(results map[string]BenchResult, baseline bool) {
	for name, r := range results {
		cur := f.Benchmarks[name]
		if baseline {
			cur.BaselineNsPerOp = r.NsPerOp
			cur.BaselineBytesPerOp = r.BytesPerOp
			cur.BaselineAllocsPerOp = r.AllocsPerOp
		} else {
			cur.NsPerOp = r.NsPerOp
			cur.BytesPerOp = r.BytesPerOp
			cur.AllocsPerOp = r.AllocsPerOp
		}
		if cur.BaselineNsPerOp > 0 && cur.NsPerOp > 0 {
			cur.Speedup = cur.BaselineNsPerOp / cur.NsPerOp
		}
		f.Benchmarks[name] = cur
	}
}

// ParseGoBench extracts per-benchmark numbers from `go test -bench
// -benchmem` output. Lines that are not benchmark results are ignored;
// the trailing -N GOMAXPROCS suffix is stripped from the name. A
// benchmark that appears more than once keeps its last line.
func ParseGoBench(output string) map[string]BenchResult {
	out := make(map[string]BenchResult)
	for _, line := range strings.Split(output, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		var r BenchResult
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := parseFloat(fields[i])
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp, ok = v, true
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			}
		}
		if ok {
			out[name] = r
		}
	}
	return out
}

func parseFloat(s string) (float64, error) {
	var v float64
	_, err := fmt.Sscanf(s, "%g", &v)
	return v, err
}

// Names returns the benchmark names in sorted order, for stable output.
func (f *BenchFile) Names() []string {
	names := make([]string, 0, len(f.Benchmarks))
	for n := range f.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
