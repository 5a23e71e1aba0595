package liberty

import (
	"strings"
	"testing"
)

// FuzzParseLiberty drives the parser with arbitrary text. The contract
// under fuzz: Parse returns (library, nil) or (nil, error) — it must
// never panic, and anything it accepts must survive a write/re-parse
// cycle without crashing either side. The seed corpus mixes the
// writer's own output (the richest valid input we can make) with the
// malformed-header shapes real truncated .lib files produce.
func FuzzParseLiberty(f *testing.F) {
	valid, err := WriteString(sampleLibrary())
	if err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		valid,
		valid[:len(valid)/2],                // truncated mid-cell
		valid[:strings.Index(valid, "{")+1], // header only, body missing
		"",
		"library",
		"library (",
		"library (x) {",
		"library (x) { }",
		"library () { cell () { } }",
		"cell (X) { }", // wrong top-level group
		"library (x) { cell (INV_1) { pin (Y) { direction : output ; } } } trailing",
		"library (x) { lu_table_template (t) { index_1 (\"0.1, 0.2\"); } }",
		"library (x) { cell (C_1) { pin (Y) { timing () { cell_rise (t) { values (\"1, 2\", \"3\"); } } } } }",
		"library (x) { /* unterminated comment",
		"library (x) { \"unterminated string",
		strings.Replace(valid, "values", "VALUES", 1),
		strings.Replace(valid, "0.001", "1e999", 1), // overflow literal
		strings.Replace(valid, "0.001", "not_a_number", 1),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		lib, err := Parse(src)
		if err != nil {
			if lib != nil {
				t.Fatal("non-nil library alongside an error")
			}
			return
		}
		if lib == nil {
			t.Fatal("nil library without an error")
		}
		// Whatever the parser accepts, the writer must be able to
		// serialize (or reject cleanly), and its output must parse back.
		out, werr := WriteString(lib)
		if werr != nil {
			return
		}
		if _, rerr := Parse(out); rerr != nil {
			t.Fatalf("writer output does not re-parse: %v", rerr)
		}
	})
}
