package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// badOutput matches what a healthy battery never prints: a failed
// experiment or a non-finite number.
var badOutput = regexp.MustCompile(`FAILED|\bNaN\b|[+-]?\bInf\b`)

// runBattery is the paper-battery workload: the experiments battery —
// every table and figure of the paper — at -small scale, seeded. (The
// paper-scale battery peaks at over 4 GB resident, too much to repeat
// dozens of times on a shared host.) Set-up is the flow build (process
// start to the "flow ready" line); the operation is one whole battery.
func runBattery(ctx context.Context, e *env, c config, r *Report) error {
	args := append([]string{"-seed", strconv.FormatInt(c.seed, 10)}, c.size.battery...)
	r.ScheduleDigest = digestItems(args)
	cal, err := e.startCalibrator(ctx)
	if err != nil {
		return err
	}
	defer cal.close()
	if err := cal.sample(); err != nil {
		return err
	}
	// A flow build takes ~0.2 s, a quarter of the other workloads' set-up
	// units, so the battery takes three times as many: on a noisy host the
	// median of three ranged from 0.18 to 0.33 s over ten runs.
	for k := 0; k < 3*c.size.setupUnits; k++ {
		t, err := flowReady(ctx, e, args)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.SetupUnits = append(r.SetupUnits, t.Seconds())
	}

	tl := newTraceLog()
	var lat []float64
	var rss float64
	var manifests []string
	var lastTrace string
	var tables [][]LayerRow
	var first, last time.Time
	deadline := time.Now().Add(time.Duration(c.seconds) * time.Second)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if i > 0 {
			if err := cal.between(nil); err != nil {
				return err
			}
		}
		out := filepath.Join(e.scratch, fmt.Sprintf("battery-%d", i))
		runArgs := append(append([]string(nil), args...), "-out", out)
		if c.traced {
			lastTrace = filepath.Join(e.scratch, fmt.Sprintf("trace-%d.json", i))
			runArgs = append(runArgs, "-trace", lastTrace)
		}
		cmd := e.command(ctx, "experiments", runArgs...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		r.Attempted++
		t0 := time.Now()
		err := cmd.Run()
		t1 := time.Now()
		if first.IsZero() {
			first = t0
		}
		last = t1
		if err != nil {
			r.Failed++
			r.check(fmt.Sprintf("battery-%d", i), false, "experiments: %v: %s", err, lastLines(stderr.Bytes(), 5))
			continue
		}
		lat = append(lat, ms(t1.Sub(t0)))
		rss = max(rss, exitedRSSMB(cmd))
		dig, err := checkBatteryOutput(out, stdout.Bytes(), stderr.Bytes())
		r.OutputDigests = append(r.OutputDigests, dig)
		r.check(fmt.Sprintf("battery-%d", i), err == nil, "output sha256 %s %v", dig, errText(err))
		manifests = append(manifests, filepath.Join(out, "manifest.json"))
		if c.traced {
			tl.add("battery", "bench", 1, t0, t1, map[string]any{"seed": c.seed})
			rows, err := batteryLayers(tl, lastTrace, t0, t1)
			if err != nil {
				return err
			}
			tables = append(tables, rows)
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no battery completed")
	}
	same := 0
	for _, d := range r.OutputDigests {
		if d == r.OutputDigests[0] {
			same++
		}
	}
	r.check("battery-deterministic", same == len(r.OutputDigests), "%d of %d batteries wrote the first battery's outputs", same, len(r.OutputDigests))
	if err := cal.sample(); err != nil {
		return err
	}
	setE2E(r, lat, last.Sub(first), rss, cal)
	if err := checkPinned(r, c); err != nil {
		return err
	}
	if !c.traced {
		return nil
	}
	med := medianIndex(lat)
	setShares(r, "median battery", tables[med])
	before, after, err := manifestCounts(manifests[med])
	if err != nil {
		return err
	}
	setCounts(r, before, after, 1)
	if err := runProbes(ctx, e.scratch, c, r); err != nil {
		return err
	}
	return tl.write(c.trace)
}

// flowReady times one flow build: process start to the "flow ready"
// line, after which the process is killed and reaped.
func flowReady(ctx context.Context, e *env, args []string) (time.Duration, error) {
	cmd := e.command(ctx, "experiments", args...)
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	defer func() {
		_ = cmd.Process.Kill() // the build is all this run needed
		_ = cmd.Wait()
	}()
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "flow ready:") {
			return time.Since(t0), nil
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
	}
	return 0, fmt.Errorf("experiments ended without a flow ready line")
}

// checkBatteryOutput digests the battery's text outputs (sha256 of
// out/*.txt concatenated in name order) and scans them and the console
// for failures and non-finite numbers.
func checkBatteryOutput(out string, stdout, stderr []byte) (string, error) {
	files, err := filepath.Glob(filepath.Join(out, "*.txt"))
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	var all bytes.Buffer
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		if m := badOutput.Find(data); m != nil {
			return "", fmt.Errorf("%s contains %q", filepath.Base(f), m)
		}
		all.Write(data)
	}
	dig := sha256Hex(all.Bytes())
	if len(files) == 0 {
		return dig, fmt.Errorf("no experiment outputs")
	}
	if m := badOutput.Find(append(stdout, stderr...)); m != nil {
		return dig, fmt.Errorf("console output contains %q", m)
	}
	return dig, nil
}

// batteryLayers attributes one traced battery to the flow's layers from
// its own phase spans: busy time per phase (summed self time, which can
// exceed wall time when the pool runs phases side by side), and the wall
// time no phase covers as unattributed.
func batteryLayers(tl *traceLog, tracePath string, t0, t1 time.Time) ([]LayerRow, error) {
	data, err := os.ReadFile(tracePath)
	if err != nil {
		return nil, err
	}
	spans, err := parseSpans(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tracePath, err)
	}
	tl.merge(spans, t0)
	var layered []span
	for _, s := range spans {
		if s.Cat == "phase" || s.Cat == "tune" {
			layered = append(layered, s)
		}
	}
	self := selfTimes(layered)
	busy := map[string]float64{}
	var iv [][2]int64
	for i, s := range layered {
		busy[batteryLayer(s)] += float64(self[i]) / 1000
		iv = append(iv, [2]int64{s.TS, s.end()})
	}
	wall := ms(t1.Sub(t0))
	covered := float64(unionLen(iv, 0, 1<<62)) / 1000
	var rows []LayerRow
	for _, l := range []string{"characterize", "synthesize", "stattime", "tune"} {
		rows = append(rows, LayerRow{Layer: "exp." + l, Share: l, Source: "experiments -trace phase spans, busy", Ms: busy[l], Pct: 100 * busy[l] / wall})
	}
	rows = append(rows, LayerRow{Layer: "exp.unattributed", Share: "unattributed", Source: "wall minus the union of phase spans", Ms: wall - covered, Pct: 100 * (wall - covered) / wall})
	return rows, nil
}

// batteryLayer maps an experiments phase span to its layer.
func batteryLayer(s span) string {
	switch {
	case s.Cat == "tune":
		return "tune"
	case s.Name == "characterize" || s.Name == "statlib-fold":
		return "characterize"
	case s.Name == "stattime":
		return "stattime"
	default: // synth, minclock, rtlgen: synthesis and its timing closure
		return "synthesize"
	}
}

// manifestCounts reads the counters of a battery's run manifest as a
// delta from zero, named like the daemon's /metrics series.
func manifestCounts(path string) (before, after map[string]float64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var m struct {
		Metrics map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	after = map[string]float64{}
	for k, v := range m.Metrics {
		if f, ok := v.(float64); ok {
			after[strings.ReplaceAll(k, ".", "_")] = f
		}
	}
	return map[string]float64{}, after, nil
}

func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
