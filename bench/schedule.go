package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"

	"stdcelltune/internal/service"
)

// size scales the workloads: the benchmark runs fullSize; TestBenchSmoke
// runs smokeSize (mcu-small, 2 Monte-Carlo instances, one experiment) so
// that it stays fast.
type size struct {
	spec       service.Spec // base job spec; seeds are filled per job
	battery    []string     // experiments flags beyond -seed
	setupUnits int          // set-up repetitions whose median is setup_s
	replay     int          // analyst queries replayed in-process on a traced run
	pinned     bool         // outputs are compared with pinned.json
}

var (
	fullSize  = size{battery: []string{"-small"}, setupUnits: 3, replay: 1000, pinned: true}
	smokeSize = size{
		spec:       service.Spec{Design: "mcu-small", Instances: 2},
		battery:    []string{"-small", "-only", "table1"},
		setupUnits: 2, replay: 40,
	}
)

// analystLibs is the analyst working set: more libraries than the
// daemon's four query-store slots.
const analystLibs = 6

// Seed ranges of the job specs: each workload and role draws Monte-Carlo
// seeds from its own block of the run seed, so no two jobs of a run share
// a cache entry. The whatif libraries always come from block 0.
const (
	seedBlock      = 1000
	seedWarmup     = 1   // svc-cold set-up jobs
	seedCold       = 100 // svc-cold measured jobs
	seedAnalystLib = 200 // analyst libraries
	seedWhatIfLib  = 300 // whatif libraries
	seedProbe      = 900 // in-process layer probes
)

func (s size) jobSpec(runSeed int64, offset int) service.Spec {
	spec := s.spec
	spec.Seed = runSeed*seedBlock + int64(offset)
	return spec
}

// rngFor is the workload's generator: every input is a pure function of
// (workload, seed).
func rngFor(workload string, seed int64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// digestItems hashes a request list: sha256 over each item's JSON
// encoding, newline-terminated.
func digestItems[T any](items []T) string {
	h := sha256.New()
	for _, it := range items {
		data, err := json.Marshal(it)
		if err != nil {
			panic(fmt.Sprintf("digestItems: %v", err)) // request types are plain data
		}
		h.Write(data)
		h.Write([]byte{'\n'})
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// artifactDigest names a job's output: sha256 over its artifact list
// ("name sha256" lines in name order, as the job document lists them).
func artifactDigest(view service.JobView) string {
	h := sha256.New()
	for _, a := range view.Artifacts {
		fmt.Fprintf(h, "%s %s\n", a.Name, a.SHA256)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// queryTemplate is one analyst query shape with a numeric threshold
// drawn from [lo, hi).
type queryTemplate struct {
	format string // %s is replaced by the threshold
	lo, hi float64
}

// analystTemplates cover every table and every query feature: filter,
// group-by with aggregates, a join of instances to cells, and order-by.
var analystTemplates = []queryTemplate{
	{`{"from":"cells","where":[{"col":"max_sigma_ns","op":"gt","value":%s}],"select":["cell","family","drive","max_sigma_ns"],"order_by":[{"col":"max_sigma_ns","desc":true}]}`, 0, 0.1},
	{`{"from":"arcs","where":[{"col":"max_mean_ns","op":"lt","value":%s}],"group_by":["cell"],"aggregate":[{"op":"count"},{"op":"max","col":"max_sigma_ns"}]}`, 0.05, 1},
	{`{"from":"windows","where":[{"col":"load_span_pf","op":"gt","value":%s}],"order_by":[{"col":"load_span_pf","desc":true}],"limit":50}`, 0, 0.05},
	{`{"from":"instances","where":[{"col":"area_um2","op":"gt","value":%s}],"group_by":["family"],"aggregate":[{"op":"count"},{"op":"sum","col":"area_um2"}]}`, 0, 20},
	{`{"from":"instances","where":[{"col":"fanout","op":"ge","value":%s}],"join":{"table":"cells","left_col":"cell","right_col":"cell"},"group_by":["cells.family"],"aggregate":[{"op":"avg","col":"cells.max_sigma_ns"},{"op":"count"}]}`, 1, 8},
	{`{"from":"nets","where":[{"col":"fanout","op":"ge","value":%s}],"group_by":["driver_cell"],"aggregate":[{"op":"count"}],"order_by":[{"col":"count","desc":true}]}`, 1, 12},
	{`{"from":"paths","where":[{"col":"slack_ns","op":"lt","value":%s}],"select":["endpoint","slack_ns","mu_plus_3sigma_ns"],"order_by":[{"col":"mu_plus_3sigma_ns","desc":true}],"limit":100}`, 0, 5},
	{`{"from":"paths","where":[{"col":"sigma_ns","op":"gt","value":%s}],"group_by":["is_ff"],"aggregate":[{"op":"count"},{"op":"avg","col":"mu_ns"}]}`, 0, 0.2},
}

func (t queryTemplate) render(x float64) string {
	return fmt.Sprintf(t.format, strconv.FormatFloat(x, 'g', 4, 64))
}

// Analyst traffic shape: each request picks its library at random, most
// often one of two hot libraries, otherwise one of the rest; it is a
// warm resubmit of the library's spec or a table query, and about half
// the queries repeat an earlier query on the same library.
//
// That access pattern — library, and warm, new or repeated — is drawn
// from a stream that is the same for every seed; the seed draws the
// queries themselves. The pattern alone fixes how often a query needs a
// store the cache has dropped, and a rebuild costs about a hundred
// queries: with the pattern seeded as well, rebuilds per thousand
// requests ranged from 82 to 102 over twenty seeds, and the seed, not
// the code, set the workload's throughput and median.
const (
	analystHotLibs   = 2    // libraries taking analystHotShare of the picks
	analystHotShare  = 0.7  // the rest spread evenly over the other libraries
	analystWarmShare = 0.15 // warm resubmits of a library's spec; the rest are queries
	analystRepeat    = 0.5  // share of queries repeating an earlier query on the library
)

// analystReq is one analyst request: a table query or, when Query is
// empty, a warm resubmit of the library's spec.
type analystReq struct {
	Lib   int    `json:"lib"`
	Query string `json:"query,omitempty"`
}

// analystSched generates the analyst request sequence; it depends only
// on the seed.
type analystSched struct {
	pattern *rand.Rand // access pattern, the same for every seed
	rng     *rand.Rand // query content, seeded
	nlibs   int
	issued  [][]string // per library, distinct queries sent so far
}

func newAnalystSched(seed int64, nlibs int) *analystSched {
	return &analystSched{
		pattern: rngFor("analyst/pattern", 0), rng: rngFor("analyst", seed),
		nlibs: nlibs, issued: make([][]string, nlibs),
	}
}

func (s *analystSched) next() analystReq {
	lib := s.pattern.Intn(analystHotLibs)
	if s.pattern.Float64() >= analystHotShare {
		lib = analystHotLibs + s.pattern.Intn(s.nlibs-analystHotLibs)
	}
	if s.pattern.Float64() < analystWarmShare {
		return analystReq{Lib: lib}
	}
	if prev := s.issued[lib]; len(prev) > 0 && s.pattern.Float64() < analystRepeat {
		return analystReq{Lib: lib, Query: prev[s.rng.Intn(len(prev))]}
	}
	t := analystTemplates[s.rng.Intn(len(analystTemplates))]
	q := t.render(t.lo + s.rng.Float64()*(t.hi-t.lo))
	s.issued[lib] = append(s.issued[lib], q)
	return analystReq{Lib: lib, Query: q}
}

// analystPrefix generates the first n requests of a fresh schedule.
func analystPrefix(seed int64, nlibs, n int) []analystReq {
	s := newAnalystSched(seed, nlibs)
	out := make([]analystReq, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// whatIfReq is one what-if request.
type whatIfReq struct {
	Op     string  `json:"op"`
	From   string  `json:"from,omitempty"`
	To     string  `json:"to,omitempty"`
	Factor float64 `json:"factor,omitempty"`
}

func (w whatIfReq) doc() []byte {
	data, err := json.Marshal(map[string]any{"schema": "stdcelltune-query/1", "what_if": w})
	if err != nil {
		panic(fmt.Sprintf("whatIfReq.doc: %v", err)) // plain data always marshals
	}
	return data
}

// whatIfCycle is the request pattern the whatif workload repeats:
// substitutesPerCycle batched substitutions, then one widen. A run holds
// whole cycles only, so every run holds the same mix.
const substitutesPerCycle = 16

// whatIfCycleSeconds is about how long one cycle takes on the host the
// benchmark was sized on: a widen, ~6 s, and the substitutions, ~1 s.
// A run holds as many cycles as fit its --seconds at that speed, a number
// fixed by --seconds alone. Closing the window by the clock instead let
// a run hold 2 cycles or 3 (34 or 51 what-ifs) as the host's speed
// happened to fall, which moved tail_ms between two percentiles (p70.6
// and p80.4) from run to run.
const whatIfCycleSeconds = 7

func whatIfCycles(seconds int) int { return max(1, seconds/whatIfCycleSeconds) }

// whatIfSchedule orders the candidate substitutions — same-family pairs
// whose source cell occurs in the design — and the widen factors, both
// seeded. pairs must arrive sorted so the order depends on the seed only.
func whatIfSchedule(seed int64, pairs [][2]string, cycles int) []whatIfReq {
	rng := rngFor("whatif", seed)
	perm := rng.Perm(len(pairs))
	var out []whatIfReq
	next := 0
	for c := 0; c < cycles && next+substitutesPerCycle <= len(perm); c++ {
		for k := 0; k < substitutesPerCycle; k++ {
			p := pairs[perm[next]]
			next++
			out = append(out, whatIfReq{Op: "substitute", From: p[0], To: p[1]})
		}
		f, _ := strconv.ParseFloat(strconv.FormatFloat(1.1+0.9*rng.Float64(), 'f', 3, 64), 64)
		out = append(out, whatIfReq{Op: "widen", Factor: f})
	}
	return out
}

// substitutePairs lists same-family (from, to) pairs whose from cell is
// used in the design, sorted.
func substitutePairs(used map[string]int, family map[string]string) [][2]string {
	byFamily := map[string][]string{}
	for cell, fam := range family {
		byFamily[fam] = append(byFamily[fam], cell)
	}
	var pairs [][2]string
	for from, n := range used {
		if n == 0 {
			continue
		}
		for _, to := range byFamily[family[from]] {
			if to != from {
				pairs = append(pairs, [2]string{from, to})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}
