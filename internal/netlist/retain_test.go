package netlist

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"stdcelltune/internal/stdcell"
)

// Types the walk does not enter: the catalogue and its specs are shared
// with the process, not built from the source.
var (
	typeCatalogue = reflect.TypeFor[*stdcell.Catalogue]()
	typeSpec      = reflect.TypeFor[*stdcell.Spec]()
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
		if v.IsNil() || seen[v.Pointer()] || v.Type() == typeCatalogue || v.Type() == typeSpec {
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
	}
	return ""
}

// checkRetainsNoSource fails t when a string of nl points into src.
func checkRetainsNoSource(t *testing.T, nl *Netlist, src string) {
	t.Helper()
	if p := retained(reflect.ValueOf(nl), src, "Netlist", map[uintptr]bool{}); p != "" {
		t.Errorf("parsed netlist keeps a slice of its source: %s", p)
	}
}

// TestParseVerilogRetainsNoSource: no string reachable from a parsed
// netlist points into the source text, so a netlist (and a query store
// built on it) does not keep the text alive. The seeds carry plain and
// escaped instance, net and port names, output assigns and outputs
// driven by a same-named net.
func TestParseVerilogRetainsNoSource(t *testing.T) {
	accepted := 0
	for _, src := range verilogSeeds(t) {
		// A private copy, so that a string constant shared with another
		// seed cannot stand in for the source.
		src = strings.Clone(src)
		nl, err := ParseVerilog(src, cat)
		if err != nil {
			continue
		}
		accepted++
		checkRetainsNoSource(t, nl, src)
	}
	if accepted < 4 {
		t.Fatalf("only %d seeds parsed", accepted)
	}
}
