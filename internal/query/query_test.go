package query

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"stdcelltune/internal/netlist"
	"stdcelltune/internal/restrict"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stattime"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/variation"
)

var (
	envOnce sync.Once
	envCat  *stdcell.Catalogue
	envStat *statlib.Library
)

func env(t *testing.T) (*stdcell.Catalogue, *statlib.Library) {
	t.Helper()
	envOnce.Do(func() {
		envCat = stdcell.NewCatalogue(stdcell.Typical)
		libs := variation.Instances(envCat, variation.Config{N: 25, Seed: 2})
		var err error
		envStat, err = statlib.Build("stat", libs)
		if err != nil {
			panic(err)
		}
	})
	return envCat, envStat
}

// testNetlist builds FF -> INV_4 -> INV_4 -> ND2_2(second input from a
// second FF) -> FF: enough cell diversity for group-bys and a
// substitutable INV population.
func testNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	c, _ := env(t)
	nl := netlist.New("whatif", c)
	in := nl.AddInput("si")
	in2 := nl.AddInput("sb")
	ff1 := nl.AddInstance("launch", c.Spec("DFQ_2"))
	nl.Connect(ff1, "D", in)
	ff2 := nl.AddInstance("launch2", c.Spec("DFQ_2"))
	nl.Connect(ff2, "D", in2)
	cur := nl.AddNet("")
	nl.Drive(ff1, "Q", cur)
	for i := 0; i < 2; i++ {
		inv := nl.AddInstance("", c.Spec("INV_4"))
		nl.Connect(inv, "A", cur)
		next := nl.AddNet("")
		nl.Drive(inv, "Y", next)
		cur = next
	}
	b := nl.AddNet("")
	nl.Drive(ff2, "Q", b)
	nd := nl.AddInstance("mix", c.Spec("ND2_2"))
	nl.Connect(nd, "A", cur)
	nl.Connect(nd, "B", b)
	out := nl.AddNet("")
	nl.Drive(nd, "Y", out)
	ffo := nl.AddInstance("capture", c.Spec("DFQ_2"))
	nl.Connect(ffo, "D", out)
	q := nl.AddNet("")
	nl.Drive(ffo, "Q", q)
	nl.MarkOutput("so", q)
	return nl
}

func testWindows() *restrict.Set {
	set := restrict.NewSet("test")
	set.Put("INV_4", "Y", restrict.Window{MinLoad: 0, MaxLoad: 0.2, MinSlew: 0, MaxSlew: 0.8})
	set.Put("ND2_2", "Y", restrict.Window{MinLoad: 0, MaxLoad: 0.15, MinSlew: 0, MaxSlew: 0.8})
	return set
}

func testStore(t *testing.T) *Store {
	t.Helper()
	_, sl := env(t)
	s, err := Build(Source{
		Library: "sha256:test",
		Stat:    sl,
		Windows: testWindows(),
		Netlist: testNetlist(t),
		STA:     sta.DefaultConfig(6),
		Rho:     0,
		Synth: []SynthUnit{
			{Unit: "u0", Design: "whatif", ClockNS: 6, Met: true, AreaUM2: 10, WNS: 0.5, TNS: 0, Iterations: 3, FullAnalyses: 1, IncrementalUpdates: 7},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustParse(t *testing.T, doc string) *Query {
	t.Helper()
	q, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("parse %s: %v", doc, err)
	}
	return q
}

func TestStoreTables(t *testing.T) {
	s := testStore(t)
	want := []string{"arcs", "cells", "instances", "nets", "paths", "synthesis", "windows"}
	got := s.TableNames()
	if len(got) != len(want) {
		t.Fatalf("tables %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tables %v want %v", got, want)
		}
	}
	if s.Tables["cells"].Rows() == 0 || s.Tables["arcs"].Rows() == 0 {
		t.Fatal("empty library tables")
	}
	if n := s.Tables["instances"].Rows(); n != 6 {
		t.Fatalf("instances rows %d want 6", n)
	}
	if n := s.Tables["windows"].Rows(); n != 2 {
		t.Fatalf("windows rows %d want 2", n)
	}
	if n := s.Tables["paths"].Rows(); n == 0 {
		t.Fatal("no paths rows")
	}
	// No NaN anywhere: every table must marshal.
	for name, tab := range s.Tables {
		for _, c := range tab.Cols {
			for _, v := range c.F {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("table %s col %s has non-finite value", name, c.Name)
				}
			}
		}
	}
}

func TestFilterAndSelect(t *testing.T) {
	s := testStore(t)
	q := mustParse(t, `{"from": "instances", "where": [{"col": "cell", "op": "eq", "value": "INV_4"}], "select": ["inst", "cell", "area_um2"]}`)
	r, err := s.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 2 {
		t.Fatalf("total %d want 2", r.Total)
	}
	if len(r.Columns) != 3 || r.Columns[2].Name != "area_um2" || r.Columns[2].Type != "float" {
		t.Fatalf("columns %+v", r.Columns)
	}
	for _, row := range r.Rows {
		if row[1].(string) != "INV_4" {
			t.Fatalf("row %v", row)
		}
	}
}

func TestGroupByAggregate(t *testing.T) {
	s := testStore(t)
	q := mustParse(t, `{"from": "instances", "group_by": ["family"], "aggregate": [{"op": "count"}, {"op": "sum", "col": "area_um2"}]}`)
	r, err := s.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	// Families sorted ascending: DFQ, INV, ND2.
	if r.Total != 3 {
		t.Fatalf("groups %d want 3: %+v", r.Total, r.Rows)
	}
	if r.Rows[0][0].(string) != "DFQ" || r.Rows[0][1].(int64) != 3 {
		t.Fatalf("first group %v", r.Rows[0])
	}
	if r.Rows[1][0].(string) != "INV" || r.Rows[1][1].(int64) != 2 {
		t.Fatalf("second group %v", r.Rows[1])
	}
	if r.Columns[2].Name != "sum_area_um2" {
		t.Fatalf("agg name %q", r.Columns[2].Name)
	}
}

func TestJoinInstancesCells(t *testing.T) {
	s := testStore(t)
	q := mustParse(t, `{"from": "instances", "join": {"table": "cells", "left_col": "cell", "right_col": "cell"}, "select": ["inst", "cell", "cells.max_sigma_ns"]}`)
	r, err := s.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 6 {
		t.Fatalf("joined rows %d want 6", r.Total)
	}
	for _, row := range r.Rows {
		if row[2].(float64) <= 0 {
			t.Fatalf("joined sigma not positive: %v", row)
		}
	}
}

func TestDistinctCellsDesignVsLibrary(t *testing.T) {
	// The ChipXplore headline question: distinct cells used by the
	// design vs available in the library.
	s := testStore(t)
	qd := mustParse(t, `{"from": "instances", "aggregate": [{"op": "count_distinct", "col": "cell"}]}`)
	rd, err := s.Execute(qd)
	if err != nil {
		t.Fatal(err)
	}
	if got := rd.Rows[0][0].(int64); got != 3 {
		t.Fatalf("distinct design cells %d want 3", got)
	}
	ql := mustParse(t, `{"from": "cells", "aggregate": [{"op": "count"}]}`)
	rl, err := s.Execute(ql)
	if err != nil {
		t.Fatal(err)
	}
	if got := rl.Rows[0][0].(int64); got < 300 {
		t.Fatalf("library cells %d want >= 300", got)
	}
}

func TestOrderByAndOps(t *testing.T) {
	s := testStore(t)
	q := mustParse(t, `{"from": "cells", "where": [{"col": "family", "op": "eq", "value": "INV"}, {"col": "drive", "op": "ge", "value": 4}], "select": ["cell", "drive"], "order_by": [{"col": "drive", "desc": true}]}`)
	r, err := s.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total == 0 {
		t.Fatal("no rows")
	}
	prev := int64(1 << 40)
	for _, row := range r.Rows {
		d := row[1].(int64)
		if d < 4 || d > prev {
			t.Fatalf("order violated: %v", r.Rows)
		}
		prev = d
	}
	// prefix / contains / in.
	q2 := mustParse(t, `{"from": "cells", "where": [{"col": "cell", "op": "in", "value": ["INV_1", "INV_2"]}], "select": ["cell"]}`)
	r2, err := s.Execute(q2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Total != 2 {
		t.Fatalf("in: %d rows", r2.Total)
	}
}

func TestPagination(t *testing.T) {
	s := testStore(t)
	q := mustParse(t, `{"from": "cells", "select": ["cell"]}`)
	full, err := s.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	cursor := ""
	pages := 0
	for {
		page, next, err := Page(full, 100, cursor)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range page.Rows {
			got = append(got, row[0].(string))
		}
		pages++
		if next == "" {
			break
		}
		cursor = next
	}
	if pages < 3 {
		t.Fatalf("expected >= 3 pages, got %d", pages)
	}
	if len(got) != full.Total {
		t.Fatalf("paged %d rows, want %d", len(got), full.Total)
	}
	for i, row := range full.Rows {
		if got[i] != row[0].(string) {
			t.Fatalf("page order diverges at %d", i)
		}
	}
	if _, _, err := Page(full, 10, "not-base64!"); err == nil {
		t.Fatal("bad cursor accepted")
	}
}

func TestNormalizationDigest(t *testing.T) {
	a := mustParse(t, `{"from": "cells", "where": [{"col": "drive", "op": "EQ", "value": 4}], "select": ["cell"]}`)
	b := mustParse(t, `{
		"select": ["cell"],
		"where":  [{"value": 4.0, "op": "eq", "col": "drive"}],
		"from":   "cells"
	}`)
	da, err := a.Digest("sha256:lib")
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest("sha256:lib")
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("normalized digests differ:\n%s\n%s", da, db)
	}
	// Pagination must not perturb the key.
	c := mustParse(t, `{"from": "cells", "where": [{"col": "drive", "op": "eq", "value": 4}], "select": ["cell"], "limit": 5, "cursor": "cg"}`)
	dc, err := c.Digest("sha256:lib")
	if err != nil {
		t.Fatal(err)
	}
	if dc != da {
		t.Fatal("limit/cursor changed the digest")
	}
	// A different library digest must miss.
	dd, err := a.Digest("sha256:other")
	if err != nil {
		t.Fatal(err)
	}
	if dd == da {
		t.Fatal("library digest not part of the key")
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		`{"from": "cells", "bogus": 1}`,
		`{"from": ""}`,
		`{}`,
		`{"from": "cells", "where": [{"col": "x", "op": "like", "value": "a"}]}`,
		`{"from": "cells", "group_by": ["family"]}`,
		`{"from": "cells", "select": ["cell"], "aggregate": [{"op": "count"}]}`,
		`{"from": "cells", "limit": -1}`,
		`{"what_if": {"op": "substitute", "from": "INV_2"}}`,
		`{"what_if": {"op": "widen"}}`,
		`{"what_if": {"op": "widen", "factor": 2}, "from": "cells"}`,
		`{"what_if": {"op": "widen", "factor": 2}, "limit": 3}`,
		`{"schema": "bogus/9", "from": "cells"}`,
	}
	for _, doc := range bad {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("accepted %s", doc)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	s := testStore(t)
	for _, doc := range []string{
		`{"from": "nope"}`,
		`{"from": "cells", "select": ["nope"]}`,
		`{"from": "cells", "where": [{"col": "cell", "op": "eq", "value": 4}]}`,
		`{"from": "cells", "where": [{"col": "area_um2", "op": "contains", "value": "x"}]}`,
		`{"from": "cells", "aggregate": [{"op": "sum", "col": "cell"}]}`,
		`{"from": "cells", "join": {"table": "instances", "left_col": "cell", "right_col": "fanout"}}`,
	} {
		q, err := Parse([]byte(doc))
		if err != nil {
			continue // parse-level rejection also fine
		}
		if _, err := s.Execute(q); err == nil {
			t.Errorf("executed %s", doc)
		}
	}
}

func TestDeterministicExecution(t *testing.T) {
	s := testStore(t)
	doc := `{"from": "instances", "join": {"table": "cells", "left_col": "cell", "right_col": "cell"}, "group_by": ["family"], "aggregate": [{"op": "count"}, {"op": "max", "col": "cells.max_sigma_ns"}]}`
	var first []byte
	for i := 0; i < 5; i++ {
		r, err := s.Execute(mustParse(t, doc))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatalf("run %d differs:\n%s\n%s", i, first, b)
		}
	}
}

func TestSubstituteMatchesFromScratch(t *testing.T) {
	s := testStore(t)
	fullBefore := sta.FullAnalyses()
	incBefore := sta.IncrementalUpdates()

	wr, err := s.Substitute("INV_4", "INV_8")
	if err != nil {
		t.Fatal(err)
	}
	if wr.Changed != 2 {
		t.Fatalf("changed %d want 2", wr.Changed)
	}
	if wr.FullAnalyses != 1 {
		t.Fatalf("engine full analyses %d want 1 (baseline only)", wr.FullAnalyses)
	}
	if wr.IncrementalUpdates == 0 {
		t.Fatal("no incremental updates recorded")
	}
	// Global counters: the evaluation added exactly the engine's own
	// work — full baseline plus incremental — plus the one incremental
	// update that restores the store's session to the baseline after
	// the swap of two inverters; nothing synthesized.
	const restoreUpdates = 1
	if got := sta.FullAnalyses() - fullBefore; got != int64(wr.FullAnalyses) {
		t.Fatalf("global full analyses grew by %d, engine says %d", got, wr.FullAnalyses)
	}
	if got := sta.IncrementalUpdates() - incBefore; got != int64(wr.IncrementalUpdates+restoreUpdates) {
		t.Fatalf("global incremental updates grew by %d, engine says %d plus %d restore", got, wr.IncrementalUpdates, restoreUpdates)
	}

	// From-scratch cross-check: mutate an independent clone, run a full
	// analysis + statistical pass, and compare deltas exactly — the
	// incremental engine is bit-identical to full analysis by contract.
	c, sl := env(t)
	nl := testNetlist(t)
	to := c.Spec("INV_8")
	for _, inst := range nl.Instances {
		if inst.Spec.Name == "INV_4" {
			if err := nl.Resize(inst, to); err != nil {
				t.Fatal(err)
			}
		}
	}
	r, err := sta.Analyze(nl, sta.DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := stattime.Analyze(r, sl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Result.AreaUM2 != nl.Area() {
		t.Fatalf("area %v want %v", wr.Result.AreaUM2, nl.Area())
	}
	if wr.Result.WNSNS != r.WNS() {
		t.Fatalf("wns %v want %v", wr.Result.WNSNS, r.WNS())
	}
	if wr.Result.SigmaNS != ds.Design.Sigma {
		t.Fatalf("sigma %v want %v", wr.Result.SigmaNS, ds.Design.Sigma)
	}
	if wr.Result.MuNS != ds.Design.Mu {
		t.Fatalf("mu %v want %v", wr.Result.MuNS, ds.Design.Mu)
	}
	// Upsizing strictly grows area.
	if wr.Delta.AreaUM2 <= 0 {
		t.Fatalf("upsizing should grow area, delta %v", wr.Delta.AreaUM2)
	}
}

func TestSubstituteRejects(t *testing.T) {
	s := testStore(t)
	if _, err := s.Substitute("INV_4", "ND2_2"); err == nil {
		t.Fatal("cross-family substitution accepted")
	}
	if _, err := s.Substitute("NOPE_1", "INV_2"); err == nil {
		t.Fatal("unknown source cell accepted")
	}
	if _, err := s.Substitute("INV_2", "NOPE_1"); err == nil {
		t.Fatal("unknown target cell accepted")
	}
	// Zero matching instances is not an error — it is a zero-delta answer.
	wr, err := s.Substitute("INV_16", "INV_8")
	if err != nil {
		t.Fatal(err)
	}
	if wr.Changed != 0 || wr.Delta.AreaUM2 != 0 {
		t.Fatalf("no-op substitution: %+v", wr)
	}
}

func TestWiden(t *testing.T) {
	s := testStore(t)
	fullBefore := sta.FullAnalyses()
	wr, err := s.Widen(2)
	if err != nil {
		t.Fatal(err)
	}
	if wr.FullAnalyses != 1 {
		t.Fatalf("engine full analyses %d want 1", wr.FullAnalyses)
	}
	if got := sta.FullAnalyses() - fullBefore; got != int64(wr.FullAnalyses) {
		t.Fatalf("global full analyses grew by %d, engine says %d", got, wr.FullAnalyses)
	}
	// Downsizing can only shrink (or hold) area.
	if wr.Delta.AreaUM2 > 0 {
		t.Fatalf("widen grew area: %+v", wr.Delta)
	}
	if wr.Changed > 0 && wr.Delta.AreaUM2 >= 0 {
		t.Fatalf("changed %d but area delta %v", wr.Changed, wr.Delta.AreaUM2)
	}
	// Timing must not regress below the baseline contract.
	if wr.Result.WNSNS < math.Min(0, wr.Baseline.WNSNS)-1e-9 {
		t.Fatalf("widen broke timing: %+v", wr)
	}
}

func TestWidenNoWindows(t *testing.T) {
	_, sl := env(t)
	s, err := Build(Source{Library: "sha256:x", Stat: sl, Netlist: testNetlist(t), STA: sta.DefaultConfig(6)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Widen(2); err == nil {
		t.Fatal("widen without windows accepted")
	}
}

func TestWhatIfNoDesign(t *testing.T) {
	_, sl := env(t)
	s, err := Build(Source{Library: "sha256:x", Stat: sl, Windows: testWindows()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Substitute("INV_2", "INV_4"); err == nil {
		t.Fatal("substitute without design accepted")
	}
	if tab := s.Tables["instances"]; tab != nil {
		t.Fatal("instances table without netlist")
	}
}
