// Command benchjson turns `go test -bench -benchmem` output into the
// repo's benchmark JSON trajectory (BENCH_PR7.json, the ledger
// `make bench-json` and `make bench-check` use). It reads the
// benchmark output on stdin and merges the parsed numbers into -out,
// preserving everything already recorded there (other benchmarks,
// phase timings, the seed baselines).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/benchjson -out BENCH_PR7.json
//	... -baseline   # record the numbers as the seed baseline instead
//
// With -baseline the numbers land in the baseline_* fields; without it
// they become the current numbers and the speedup against any recorded
// baseline is recomputed. `make bench-json` wires the whole pipeline.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"stdcelltune/internal/perfstat"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("out", "BENCH_PR7.json", "benchmark JSON file to merge into")
	baseline := flag.Bool("baseline", false, "record parsed numbers as the seed baseline instead of the current numbers")
	note := flag.String("note", "", "free-form note stored in the file (machine, scale, date)")
	flag.Parse()

	raw, err := io.ReadAll(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	// The benchmark output is also the human-readable record; echo it so
	// piping through benchjson loses nothing.
	os.Stdout.Write(raw)

	results := perfstat.ParseGoBench(string(raw))
	if len(results) == 0 {
		log.Fatal("no benchmark result lines found on stdin (want `go test -bench` output)")
	}
	f, err := perfstat.ReadBenchFile(*out)
	if err != nil {
		log.Fatal(err)
	}
	f.Merge(results, *baseline)
	if *note != "" {
		f.Note = *note
	}
	if err := f.Write(*out); err != nil {
		log.Fatal(err)
	}
	kind := "current"
	if *baseline {
		kind = "baseline"
	}
	fmt.Fprintf(os.Stderr, "benchjson: merged %d %s benchmark(s) into %s\n", len(results), kind, *out)
}
