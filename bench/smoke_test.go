package main

import (
	"context"
	"os"
	"testing"
	"time"
)

// TestBenchSmoke runs every workload at smoke size against freshly
// built programs, untraced and traced. It asserts only that each report
// is valid and every correctness check passes — never a timing, so the
// traced runs' accounting check, a bound on unattributed time, is left
// out: smoke-size operations last a few milliseconds.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs stcd and experiments")
	}
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	e := &env{root: root, bin: dir}
	if err := buildPrograms(ctx, root, dir); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := config{seed: 1, seconds: 1, traced: traced, size: smokeSize, trace: dir + "/trace.json"}
			r, err := runOne(ctx, e, dir, w, c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if err := r.Validate(); err != nil {
				t.Errorf("%s traced=%v: invalid report: %v", w.name, traced, err)
			}
			for _, ch := range r.Checks {
				if !ch.OK && ch.Name != "trace-accounting" {
					t.Errorf("%s traced=%v: check %s failed: %s", w.name, traced, ch.Name, ch.Detail)
				}
			}
			if r.Failed > 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, r.Failed, r.Attempted)
			}
			names := e2eMetrics
			if traced {
				names = layerMetrics
			}
			if _, err := r.resultLine(names); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			if traced {
				data, err := os.ReadFile(c.trace)
				if err != nil {
					t.Fatal(err)
				}
				if spans, err := parseSpans(data); err != nil || len(spans) == 0 {
					t.Errorf("%s: trace has %d spans (%v)", w.name, len(spans), err)
				}
			}
		}
	}
}
