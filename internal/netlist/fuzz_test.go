package netlist

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// verilogSeeds are the writer's output for the test designs (plain and
// escaped names, a flip-flop, output assigns) plus the malformed shapes
// of TestParseVerilogErrors and TestVerilogParserNeverPanics.
func verilogSeeds(t testing.TB) []string {
	var seeds []string
	for _, nl := range []*Netlist{buildXorViaNandInv(t), escapedNetlist()} {
		var sb strings.Builder
		if err := WriteVerilog(&sb, nl); err != nil {
			t.Fatal(err)
		}
		valid := sb.String()
		seeds = append(seeds, valid, valid[:len(valid)/2], valid[:strings.Index(valid, ";")+1])
	}
	return append(seeds,
		"",
		"module ; endmodule",
		"module m ( input a ); UNKNOWN_CELL u0 (.A(a)); endmodule",
		"module m ( input a ); wire w endmodule", // missing semicolon
		"module m ( input a, output y ); INV_1 u (.A(a), .Y(y)); endmodule trailing ( ;",
		"module m ( input a, output y ); INV_1 u (.A(a), .Y(n)); assign y = n; endmodule",
		"module m ( input a, output y ); INV_1 u (.A(a) .Y(y)); endmodule",
		"module m ( inout a ); endmodule",
		"module \\( ( input \\, , output \\) ); INV_1 \\; (.A(\\, ), .Y(\\) )); endmodule",
		"module m ( input a // comment\n ); // trailing\nendmodule",
		"module m ( input a ); INV_1 u (.A(a), .A(b), .Y(a)); endmodule",
		"module m (\r\n input a\r\n );\r\n endmodule\r\n",
		"module m ( input n1, output y ); INV_1 u1 (.A(n1), .Q(a), .Y(y)); endmodule", // no pin Q
	)
}

// escapedNetlist has bus-style names that need escaped identifiers.
func escapedNetlist() *Netlist {
	nl := New("esc", cat)
	a := nl.AddInput("bus[3]")
	inv := nl.AddInstance("u_inv[0]", cat.Spec("INV_1"))
	nl.Connect(inv, "A", a)
	y := nl.AddNet("out[0]")
	nl.Drive(inv, "Y", y)
	nl.MarkOutput("out[0]", y)
	nl.MarkOutput("9y", y)
	return nl
}

// FuzzParseVerilog holds the streaming parser to the token-slice parser
// it replaced (parseVerilogOracle): on any text both accept or both
// reject, and what they accept they build into identical netlists that
// keep no slice of the text.
func FuzzParseVerilog(f *testing.F) {
	for _, s := range verilogSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkVerilogAgainstOracle(t, src)
	})
}

// TestParseVerilogMatchesOracle runs the fuzz contract over random
// mutations of the seeds, so plain `go test` explores beyond the fixed
// corpus.
func TestParseVerilogMatchesOracle(t *testing.T) {
	seeds := verilogSeeds(t)
	rng := rand.New(rand.NewSource(15))
	alphabet := []byte("module endwire assign().,;=\\ \n\t\rINV_1uxy0/")
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
		checkVerilogAgainstOracle(t, string(b))
	}
}

func checkVerilogAgainstOracle(t *testing.T, src string) {
	t.Helper()
	src = strings.Clone(src) // a private copy, for the retention check
	nl, err := ParseVerilog(src, cat)
	want, werr := parseVerilogOracle(src, cat)
	if (err == nil) != (werr == nil) {
		t.Fatalf("ParseVerilog error %v, oracle error %v, on:\n%q", err, werr, src)
	}
	if err == nil && !reflect.DeepEqual(nl, want) {
		t.Fatalf("ParseVerilog and oracle netlists differ, on:\n%q", src)
	}
	if err == nil {
		checkRetainsNoSource(t, nl, src)
	}
}
