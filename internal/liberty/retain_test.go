package liberty

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// retained returns the path of the first non-empty string reachable
// from v whose bytes lie inside src, or "" when the value shares no
// memory with src.
func retained(v reflect.Value, src, path string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.String:
		s := v.String()
		if s == "" {
			return ""
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		if p >= lo && p < lo+uintptr(len(src)) {
			return fmt.Sprintf("%s (%q)", path, s)
		}
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return retained(v.Elem(), src, path, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := retained(v.Field(i), src, path+"."+v.Type().Field(i).Name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := retained(v.Index(i), src, fmt.Sprintf("%s[%d]", path, i), seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := retained(it.Key(), src, path+" key", seen); p != "" {
				return p
			}
			if p := retained(it.Value(), src, fmt.Sprintf("%s[%v]", path, it.Key()), seen); p != "" {
				return p
			}
		}
	}
	return ""
}

// checkRetainsNoSource fails t when a string of lib points into src.
func checkRetainsNoSource(t *testing.T, lib *Library, src string) {
	t.Helper()
	if p := retained(reflect.ValueOf(lib), src, "Library", map[uintptr]bool{}); p != "" {
		t.Errorf("parsed library keeps a slice of its source: %s", p)
	}
}

// TestParseRetainsNoSource: no string reachable from a parsed Library
// points into the source text, so a library (and whatever is built from
// its names, such as a query store) does not keep the text alive. The
// sample library carries every string field the model has, the power
// groups included; the last case concatenates a capacitive unit with an
// empty operand, which yields the other operand itself.
func TestParseRetainsNoSource(t *testing.T) {
	l := sampleLibrary()
	l.Cells[0].Pins[1].Power = []*PowerArc{{RelatedPin: "A", Template: "delay_template",
		RisePower: sampleTable(0.3), FallPower: sampleTable(0.2)}}
	sample, err := WriteString(l)
	if err != nil {
		t.Fatal(err)
	}
	emptyOperand := strings.Replace(sample, "capacitive_load_unit (1, pf)", `capacitive_load_unit ("1pf", "")`, 1)
	if emptyOperand == sample {
		t.Fatal("sample library has no capacitive_load_unit (1, pf)")
	}
	srcs := append(oracleSeeds(t), sample, emptyOperand)
	accepted := 0
	for _, src := range srcs {
		// A private copy, so that a string constant shared with another
		// seed cannot stand in for the source.
		src = strings.Clone(src)
		lib, err := Parse(src)
		if err != nil {
			continue
		}
		accepted++
		checkRetainsNoSource(t, lib, src)
	}
	if accepted < 10 {
		t.Fatalf("only %d of %d sources parsed", accepted, len(srcs))
	}
}
