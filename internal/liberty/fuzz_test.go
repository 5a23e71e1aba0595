package liberty

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// oracleSeeds mixes the writer's own output (the richest valid input we
// can make) with the malformed-header shapes real truncated .lib files
// produce and with the corners where the single-pass parser departs
// from a tree walk: repeated and empty attributes (the first one with a
// value wins), values ahead of their axes, sub-groups inside tables,
// and comments or continuations in odd places.
func oracleSeeds(t testing.TB) []string {
	valid, err := WriteString(sampleLibrary())
	if err != nil {
		t.Fatal(err)
	}
	const arc = `library (x) { cell (C_1) { area : 1; pin (A) { direction : input; } pin (Y) { direction : output; timing () { related_pin : "A"; %s } } } }`
	return []string{
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
		"library (x) { } /* trailing comment */ // and another",
		"library (x) { } /* unterminated trailing comment",
		"library (x) { time_unit : ; time_unit : \"2ns\"; time_unit : \"3ns\"; capacitive_load_unit (); capacitive_load_unit (1, ff); }",
		"library (x) { nom_voltage : 1e999; nom_temperature : abc; nom_process (2, 3); }",
		"library (x) { a (b (c)) { } }",
		"library (x) { a (b) ) ; }",
		"library (x) { a : b c, \"d\" ; e (f) g ; }",
		"library (x) { lu_table_template (t) { index_1 (\"\"); index_1 (\"x\"); variable_1 : ; variable_1 : v; } }",
		"library (x) { lu_table_template (t) { index_2 (\"1\r\"); } }",
		"library (x) { cell (C) { area : 0; area : 5; drive_strength : 2x; is_sequential : ; is_sequential : true; } }",
		"library (x) { cell (C) { pin (P) { direction : ; direction : output; direction : input; capacitance : 1; } foo () { pin (Q) { } } } }",
		fmt.Sprintf(arc, `cell_rise (t) { values ("1, 2", "3, 4"); index_2 ("0.1 0.2"); index_1 ("1,2"); }`),
		fmt.Sprintf(arc, `cell_rise () { index_1 ("1"); index_2 ("1"); values ("1"); } cell_fall (t2) { index_1 ("1"); index_2 ("1"); values ("2"); }`),
		fmt.Sprintf(arc, `cell_rise (t) { index_1 (""); index_2 ("1"); }`),
		fmt.Sprintf(arc, `cell_rise (t) { index_1 (""); index_2 ("1"); values (); values ("1"); }`),
		fmt.Sprintf(arc, `cell_rise (t) { index_1 ("1"); index_2 ("1, 2"); values ("1, 2, 3"); }`),
		fmt.Sprintf(arc, `cell_rise (t) { index_1 ("1"); index_2 ("1"); values ("1"); junk (j) { k : l; } } mystery (m) { index_1 ("1"); index_2 ("1"); values ("5"); }`),
		fmt.Sprintf(arc, `mystery (m) { }`),
		fmt.Sprintf(arc, `cell_rise (t) { index_1 (1, 2); index_2 ("1"); values (1, 2); }`),
		"library (x) { cell (C/*x*/) { area : 1/*2*/; } } ",
		"library (x) {\\\n cell (C) { area : \"1\n\"; } }",
		// Names, units and strings that only a quoted form holds.
		`library ("lib (1)") { time_unit : "1/*ns*/"; voltage_unit : "1 V"; capacitive_load_unit (1, "p f"); default_operating_conditions : "typ, hot"; }`,
		`library (x) { cell ("a b") { area : 1; } cell ("//c") { } cell ("/*d*/") { } cell ("e{f}") { cell_footprint : "g;h"; } }`,
		`library (x) { lu_table_template ("t:1") { variable_1 : "total output"; variable_2 : "a\b"; index_1 ("1"); index_2 ("1"); } }`,
		fmt.Sprintf(arc, `timing_sense : "positive unate"; timing_type : "//x"; cell_rise ("t 1") { index_1 ("1"); index_2 ("1"); values ("1"); }`),
		`library (x) { cell (C) { pin ("p;q") { direction : output; function : "(a)/*b"; max_capacitance : 1; timing () { related_pin : "A,B"; } } } }`,
	}
}

// FuzzParseLiberty holds the single-pass parser to the two-stage parser
// it replaced (parseOracle): on any text both accept or both reject,
// and what they accept they build into libraries identical down to the
// bits of every float. Parse must never panic, anything it accepts
// must survive a write/re-parse cycle, and the library it builds keeps
// no slice of the text.
func FuzzParseLiberty(f *testing.F) {
	for _, s := range oracleSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkAgainstOracle(t, src)
	})
}

// TestParseMatchesOracle runs the fuzz contract over random mutations of
// the seeds, so plain `go test` explores beyond the fixed corpus.
func TestParseMatchesOracle(t *testing.T) {
	seeds := oracleSeeds(t)
	rng := rand.New(rand.NewSource(15))
	alphabet := []byte("library(cel){}:;,\"\\ \n\t\r/*0.19-eXy_")
	for i := 0; i < 3000; i++ {
		b := []byte(seeds[rng.Intn(len(seeds))])
		for k := rng.Intn(4); k > 0 && len(b) > 0; k-- {
			j := rng.Intn(len(b))
			switch rng.Intn(3) {
			case 0:
				b[j] = alphabet[rng.Intn(len(alphabet))]
			case 1:
				b = append(b[:j], b[j+1:]...)
			default:
				b = append(b[:j], append([]byte{alphabet[rng.Intn(len(alphabet))]}, b[j:]...)...)
			}
		}
		checkAgainstOracle(t, string(b))
	}
}

func checkAgainstOracle(t *testing.T, src string) {
	t.Helper()
	lib, err := Parse(src)
	want, werr := parseOracle(src)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Parse error %v, oracle error %v, on:\n%q", err, werr, src)
	}
	if err != nil {
		if lib != nil {
			t.Fatal("non-nil library alongside an error")
		}
		return
	}
	if lib == nil {
		t.Fatal("nil library without an error")
	}
	if d := sameBits(reflect.ValueOf(lib), reflect.ValueOf(want), "lib"); d != "" {
		t.Fatalf("Parse and oracle libraries differ at %s, on:\n%q", d, src)
	}
	checkRetainsNoSource(t, lib, src)
	// Whatever the parser accepts, the writer must serialize (a parsed
	// value never holds a double quote), as text that reads back as the
	// library it wrote: writing the re-parsed library gives the same text.
	out, werr := WriteString(lib)
	if werr != nil {
		t.Fatalf("writer refused a parsed library: %v", werr)
	}
	back, rerr := Parse(out)
	if rerr != nil {
		t.Fatalf("writer output does not re-parse: %v", rerr)
	}
	if again, _ := WriteString(back); again != out {
		t.Fatalf("writer output reads back as a different library:\n%s\nrewritten:\n%s", out, again)
	}
}

// sameBits returns the path of the first difference between a and b, or
// "". Floats compare by their bits, so NaN payloads and signed zeros
// count; slices compare nil-ness as well as contents.
func sameBits(a, b reflect.Value, path string) string {
	if a.Kind() != b.Kind() {
		return path + " (kind)"
	}
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s (%v vs %v)", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s (%q vs %q)", path, a.String(), b.String())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return path
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return path
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + " (nil)"
			}
			return ""
		}
		return sameBits(a.Elem(), b.Elem(), path)
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return path + " (nil)"
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (len %d vs %d)", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := sameBits(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := sameBits(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return path + " (map)"
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v] (missing)", path, k)
			}
			if d := sameBits(a.MapIndex(k), bv, fmt.Sprintf("%s[%v]", path, k)); d != "" {
				return d
			}
		}
	default:
		return path + " (unsupported kind " + a.Kind().String() + ")"
	}
	return ""
}
