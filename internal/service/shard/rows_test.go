package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"stdcelltune/internal/liberty"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/variation"
)

// executeAll runs every characterize task of an n-instance job split at
// size through a real Executor and returns the documents in shard
// order.
func executeAll(t *testing.T, n, size int) []json.RawMessage {
	t.Helper()
	var e Executor
	tasks := CharTasks("g", "stat_typical", "typical", 1, 0.02, n, size)
	raws := make([]json.RawMessage, len(tasks))
	for i, task := range tasks {
		raw, err := e.Execute(context.Background(), task)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	return raws
}

// foldText folds a sample matrix and renders the library as Liberty
// text, the statlib.lib artifact's bytes.
func foldText(t *testing.T, cat *stdcell.Catalogue, rows [][]float64) string {
	t.Helper()
	sl, err := statlib.FoldSamples("stat_typical", cat.Layout(), rows)
	if err != nil {
		t.Fatal(err)
	}
	text, err := liberty.WriteString(sl.ToLiberty())
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestAssembleMatchesSamples: rows assembled from any split of [0, N),
// one-instance shards and a one-instance tail included, are the bits
// variation.SamplesCtx generates for the whole job, and fold to the
// same library bytes.
func TestAssembleMatchesSamples(t *testing.T) {
	const n = 5
	cat := stdcell.NewCatalogue(stdcell.Typical)
	want, err := variation.SamplesCtx(context.Background(), cat, variation.Config{N: n, Seed: 1, CharNoise: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	wantText := foldText(t, cat, want)
	for _, size := range []int{1, 2, 3, n} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			c := New(Options{})
			rows, err := c.Assemble("g", "stat_typical", n, cat.Layout().Entries, executeAll(t, n, size))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				for k, v := range want[i] {
					if math.Float64bits(rows[i][k]) != math.Float64bits(v) {
						t.Fatalf("row %d entry %d: %v, want %v", i, k, rows[i][k], v)
					}
				}
			}
			if foldText(t, cat, rows) != wantText {
				t.Fatal("assembled rows fold to different library bytes")
			}
			set, ok := c.ShardSet("g")
			if !ok || len(set.Shards) != len(ShardRanges(n, size)) || set.Shards[0].RowsSHA256 == "" {
				t.Fatalf("retained set: ok=%v %+v", ok, set)
			}
		})
	}
}

// TestAssembleSingleInstanceTail: a tail shard can hold exactly one
// instance; its document carries one row of the full width, and the
// assembled matrix still holds the rows variation.SamplesCtx generates
// for the whole job, bit for bit, folding to the same library bytes.
func TestAssembleSingleInstanceTail(t *testing.T) {
	const n = 5
	cat := stdcell.NewCatalogue(stdcell.Typical)
	width := cat.Layout().Entries
	raws := executeAll(t, n, 2) // [0,2) [2,4) [4,5)
	var tail Rows
	if err := json.Unmarshal(raws[2], &tail); err != nil {
		t.Fatal(err)
	}
	if tail.Lo != 4 || tail.Hi != 5 {
		t.Fatalf("tail shard range [%d,%d), want [4,5)", tail.Lo, tail.Hi)
	}
	if tail.Width != width || len(tail.Rows) != 8*width {
		t.Fatalf("tail shard width %d with %d row bytes, want one row of %d entries", tail.Width, len(tail.Rows), width)
	}

	want, err := variation.SamplesCtx(context.Background(), cat, variation.Config{N: n, Seed: 1, CharNoise: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := New(Options{}).Assemble("g", "stat_typical", n, width, raws)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want[n-1] {
		if math.Float64bits(rows[n-1][k]) != math.Float64bits(v) {
			t.Fatalf("tail row entry %d: %v, want %v", k, rows[n-1][k], v)
		}
	}
	if foldText(t, cat, rows) != foldText(t, cat, want) {
		t.Fatal("rows assembled with a single-instance tail fold to different library bytes")
	}
}

// TestAssembleArrivalOrderInvariant: shards completed in any order
// through the coordinator come back in shard order, so the assembled
// matrix is the same bits however leases and completions interleave.
func TestAssembleArrivalOrderInvariant(t *testing.T) {
	const n, size = 7, 2
	cat := stdcell.NewCatalogue(stdcell.Typical)
	docs := executeAll(t, n, size)
	want, err := New(Options{}).Assemble("g", "stat_typical", n, cat.Layout().Entries, docs)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]int{{3, 1, 0, 2}, {2, 3, 0, 1}} {
		c := New(Options{})
		node := c.Register("w", "").Node
		done := make(chan []json.RawMessage, 1)
		go func() {
			raws, err := c.Run(context.Background(), "g", CharTasks("g", "stat_typical", "typical", 1, 0.02, n, size))
			if err != nil {
				t.Error(err)
			}
			done <- raws
		}()
		waitFor(t, func() bool { return c.Stats().QueueDepth == len(docs) })
		leases := make([]Lease, len(docs))
		for i := range leases {
			l, ok, err := c.Lease(node)
			if !ok || err != nil {
				t.Fatalf("lease %d: ok=%v err=%v", i, ok, err)
			}
			leases[i] = l
		}
		for _, k := range order {
			if err := c.Complete(node, leases[k].Task.ID, leases[k].Token, docs[k], ""); err != nil {
				t.Fatal(err)
			}
		}
		got, err := c.Assemble("g", "stat_typical", n, cat.Layout().Entries, <-done)
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		for i := range want {
			for k, v := range want[i] {
				if math.Float64bits(got[i][k]) != math.Float64bits(v) {
					t.Fatalf("order %v: row %d entry %d differs", order, i, k)
				}
			}
		}
	}
}

// TestAssembleRejects: a set that is incomplete, duplicated, mis-tiled
// or mis-indexed, or a document that is short, of the wrong width,
// schema, library or instance count, fails the whole group and retains
// nothing — a lost or double-counted shard must never reach the fold.
func TestAssembleRejects(t *testing.T) {
	const n = 8 // result(i) tiles it in four shards of two rows
	set := func() []json.RawMessage {
		return []json.RawMessage{result(0), result(1), result(2), result(3)}
	}
	edit := func(i int, f func(*Rows)) []json.RawMessage {
		raws := set()
		var doc Rows
		if err := json.Unmarshal(raws[i], &doc); err != nil {
			t.Fatal(err)
		}
		f(&doc)
		raws[i] = mustJSON(doc)
		return raws
	}
	cases := []struct {
		label string
		raws  []json.RawMessage
	}{
		{"missing shard", set()[:3]},
		{"empty set", nil},
		{"duplicated shard", []json.RawMessage{result(0), result(1), result(1), result(3)}},
		{"mis-indexed", edit(2, func(d *Rows) { d.Index = 1 })},
		{"mis-tiled", edit(1, func(d *Rows) { d.Lo, d.Hi = 3, 5 })},
		{"short", edit(3, func(d *Rows) { d.Rows = d.Rows[:8] })},
		{"wrong width", edit(0, func(d *Rows) { d.Width, d.Hi = 2, 1 })},
		{"wrong schema", edit(0, func(d *Rows) { d.Schema = "stdcelltune-shard/1" })},
		{"wrong library", edit(0, func(d *Rows) { d.Library = "other" })},
		{"wrong N", edit(2, func(d *Rows) { d.N = n + 1 })},
		{"wrong shard count", edit(1, func(d *Rows) { d.Shards = 5 })},
		{"unknown field", append(set()[:3], json.RawMessage(`{"schema":"stdcelltune-shard/2","cells":[]}`))},
	}
	for _, tc := range cases {
		c := New(Options{})
		if _, err := c.Assemble("g", "stat", n, 1, tc.raws); err == nil {
			t.Errorf("%s: assembled a corrupt shard set", tc.label)
		}
		if _, ok := c.ShardSet("g"); ok {
			t.Errorf("%s: a rejected set was retained", tc.label)
		}
	}
	// The untouched set still assembles: the cases above failed for the
	// injected corruption, not a broken fixture.
	if _, err := New(Options{}).Assemble("g", "stat", n, 1, set()); err != nil {
		t.Fatalf("control set rejected: %v", err)
	}
}

// TestRowsEncodingKeepsEveryBit: the row bytes carry NaN payloads,
// signed zeros and infinities unchanged.
func TestRowsEncodingKeepsEveryBit(t *testing.T) {
	vals := []float64{math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1), math.Inf(-1), 1e-310, 0.1}
	raw := mustJSON(Rows{
		Header: Header{Schema: Schema, Library: "stat", N: len(vals), Shards: 1, Lo: 0, Hi: len(vals), Width: 1},
		Rows:   encodeRows([][]float64{vals[:2], vals[2:]}),
	})
	rows, err := New(Options{}).Assemble("g", "stat", len(vals), 1, []json.RawMessage{raw})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if math.Float64bits(rows[i][0]) != math.Float64bits(v) {
			t.Fatalf("value %d: %#x, want %#x", i, math.Float64bits(rows[i][0]), math.Float64bits(v))
		}
	}
}

func TestShardRanges(t *testing.T) {
	cases := []struct {
		n, size int
		want    [][2]int
	}{
		{10, 4, [][2]int{{0, 4}, {4, 8}, {8, 10}}},
		{10, 10, [][2]int{{0, 10}}},
		{10, 25, [][2]int{{0, 10}}},
		{10, 0, [][2]int{{0, 10}}},
		{3, 1, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{0, 4, nil},
	}
	for _, tc := range cases {
		got := ShardRanges(tc.n, tc.size)
		if len(got) != len(tc.want) {
			t.Fatalf("ShardRanges(%d,%d) = %v, want %v", tc.n, tc.size, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("ShardRanges(%d,%d) = %v, want %v", tc.n, tc.size, got, tc.want)
			}
		}
	}
}
