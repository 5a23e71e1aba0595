package statlib

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"stdcelltune/internal/liberty"
	"stdcelltune/internal/robust/faultinject"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/variation"
)

// foldOutput renders everything a fold produces — the statistical
// library as Liberty text plus the quarantine report, or the error — so
// two folds can be compared byte for byte.
func foldOutput(sl *Library, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	text, err := liberty.WriteString(sl.ToLiberty())
	if err != nil {
		return "write error: " + err.Error()
	}
	return fmt.Sprintf("%s\nsamples %d\n%s", text, sl.Samples, sl.Quarantine.Render())
}

// TestFoldSamplesMatchesBuild: folding the sample matrix must write the
// same bytes as folding the Liberty instances, on every corner, with and
// without characterization noise, with global variation on, and at the
// paper's N = 50 (on two corners: generating 50 Liberty instances is
// the slow half of every case, above all under the race detector).
func TestFoldSamplesMatchesBuild(t *testing.T) {
	type tc struct {
		corner stdcell.Corner
		cfg    variation.Config
	}
	var cases []tc
	for _, corner := range []stdcell.Corner{stdcell.Typical, stdcell.Slow, stdcell.Fast} {
		cases = append(cases,
			tc{corner, variation.Config{N: 2, Seed: 2, CharNoise: 0}},
			tc{corner, variation.Config{N: 7, Seed: 7, CharNoise: 0.02}},
			tc{corner, variation.Config{N: 7, Seed: 3, CharNoise: 0.02, GlobalSigma: variation.DefaultGlobalSigma}})
	}
	cases = append(cases,
		tc{stdcell.Typical, variation.Config{N: 50, Seed: 1, CharNoise: 0.02}},
		tc{stdcell.Slow, variation.Config{N: 50, Seed: 50, CharNoise: 0}})
	ctx := context.Background()
	for _, c := range cases {
		name := fmt.Sprintf("%s/N%d/noise%g/global%g", c.corner.Name(), c.cfg.N, c.cfg.CharNoise, c.cfg.GlobalSigma)
		t.Run(name, func(t *testing.T) {
			cat := stdcell.NewCatalogue(c.corner)
			libs, err := variation.InstancesCtx(ctx, cat, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := variation.SamplesCtx(ctx, cat, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := foldOutput(Build("stat", libs))
			got := foldOutput(FoldSamples("stat", cat.Layout(), rows))
			if got != want {
				t.Fatalf("FoldSamples differs from Build (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestFoldSamplesQuarantineParity: entry faults (NaN, negative delay)
// must drop the same samples, quarantine the same cells with the same
// reasons and trip the same limit in both folds. A row entry feeds both
// the rise and the fall table, so a fault the injector put into either
// table is applied to the whole entry: into the row, and into both
// tables as the fold would derive them from it.
func TestFoldSamplesQuarantineParity(t *testing.T) {
	ctx := context.Background()
	cat := stdcell.NewCatalogue(stdcell.Typical)
	layout := cat.Layout()
	cfg := variation.Config{N: 4, Seed: 5, CharNoise: 0.02}
	for _, rate := range []float64{0.04, 0.3} {
		t.Run(fmt.Sprint(rate), func(t *testing.T) {
			libs, err := variation.InstancesCtx(ctx, cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := faultinject.Corrupt(libs, faultinject.Config{
				Rate: rate, Seed: 11, Modes: []faultinject.Mode{faultinject.NaNEntry, faultinject.NegativeDelay},
			})
			if rep.Entries == 0 {
				t.Fatal("injector corrupted nothing")
			}
			rows, err := variation.SamplesCtx(ctx, cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ns := len(stdcell.SlewAxis)
			for k, lib := range libs {
				for _, lc := range layout.Cells {
					cell := lib.Cell(lc.Spec.Name)
					for _, lp := range lc.Pins {
						pin := cell.Pin(lp.Name)
						for ai, la := range lp.Arcs {
							arc := pin.Timing[ai]
							for i := range lc.Loads {
								for j := 0; j < ns; j++ {
									r, f := arc.CellRise.Values[i][j], arc.CellFall.Values[i][j]
									if usableSample(r) && usableSample(f) {
										continue
									}
									bad := r
									if usableSample(r) {
										bad = f
									}
									rows[k][la.Offset+i*ns+j] = bad
									arc.CellRise.Values[i][j] = bad * stdcell.RiseScale
									arc.CellFall.Values[i][j] = bad * stdcell.FallScale
								}
							}
						}
					}
				}
			}
			sl, err := Build("stat", libs)
			if rate < 0.1 && (err != nil || sl.Quarantine.Len() == 0) {
				t.Fatalf("rate %g should quarantine some cells under the limit: err %v", rate, err)
			}
			if rate > 0.1 && err == nil {
				t.Fatalf("rate %g should exceed the quarantine limit", rate)
			}
			want := foldOutput(sl, err)
			got := foldOutput(FoldSamples("stat", layout, rows))
			if got != want {
				t.Fatalf("FoldSamples differs from Build under faults:\n got %.300s\nwant %.300s", got, want)
			}
		})
	}
}

// TestFoldSamplesRejects: the fold's input checks.
func TestFoldSamplesRejects(t *testing.T) {
	cat := stdcell.NewCatalogue(stdcell.Typical)
	layout := cat.Layout()
	if _, err := FoldSamples("x", layout, [][]float64{make([]float64, layout.Entries)}); err == nil {
		t.Error("one instance folded")
	}
	if _, err := FoldSamples("x", layout, [][]float64{make([]float64, layout.Entries), make([]float64, 3)}); err == nil {
		t.Error("short row folded")
	}
}

// TestFoldSamplesWorkerInvariant: the parallel fold writes the same
// bytes at every worker count, variation.SampleRows generates the same
// row bits however its rows fall into ranges, and the fold's ranges
// cover every cell exactly once, in order, in at most the worker count
// of ranges.
func TestFoldSamplesWorkerInvariant(t *testing.T) {
	cat := stdcell.NewCatalogue(stdcell.Slow)
	layout := cat.Layout()
	cfg := variation.Config{N: 5, Seed: 4, CharNoise: 0.02}
	rows, err := variation.SamplesCtx(context.Background(), cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for _, procs := range []int{1, 2, 3, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got := foldOutput(FoldSamples("stat", layout, rows))
		// Rows [1, 5) split into ranges differently at every width;
		// each row must still be the same bits.
		sub, err := variation.SampleRows(context.Background(), cat, cfg, 1, cfg.N, 0)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		for k, row := range sub {
			for j, v := range row {
				if math.Float64bits(v) != math.Float64bits(rows[1+k][j]) {
					t.Fatalf("GOMAXPROCS=%d: SampleRows row %d entry %d = %v, want %v", procs, 1+k, j, v, rows[1+k][j])
				}
			}
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("GOMAXPROCS=%d fold differs from GOMAXPROCS=1", procs)
		}
	}
	for _, workers := range []int{0, 1, 2, 3, 7, len(layout.Cells), 10 * len(layout.Cells)} {
		b := foldRanges(layout, workers)
		if b[0] != 0 || b[len(b)-1] != len(layout.Cells) {
			t.Fatalf("workers %d: ranges %v do not span [0,%d)", workers, b, len(layout.Cells))
		}
		if n := len(b) - 1; n > max(workers, 1) {
			t.Fatalf("workers %d: %d ranges", workers, n)
		}
		for r := 1; r < len(b); r++ {
			if b[r] <= b[r-1] {
				t.Fatalf("workers %d: empty or reversed range in %v", workers, b)
			}
		}
	}
}
