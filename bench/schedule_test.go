package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"stdcelltune/internal/query"
	"stdcelltune/internal/service"
)

func TestDigestsArePureAndOrderSensitive(t *testing.T) {
	a := []string{"-seed", "1"}
	if digestItems(a) != digestItems([]string{"-seed", "1"}) {
		t.Error("digestItems not deterministic")
	}
	if digestItems(a) == digestItems([]string{"1", "-seed"}) {
		t.Error("digestItems ignores order")
	}
	if digestItems([]string{"ab", "c"}) == digestItems([]string{"a", "bc"}) {
		t.Error("digestItems ignores item boundaries")
	}
	v := service.JobView{Artifacts: []service.ArtifactView{{Name: "a", SHA256: "01"}, {Name: "b", SHA256: "02"}}}
	w := v
	w.Artifacts = []service.ArtifactView{{Name: "a", SHA256: "01"}, {Name: "b", SHA256: "03"}}
	if artifactDigest(v) == artifactDigest(w) || artifactDigest(v) != artifactDigest(v) {
		t.Error("artifactDigest does not follow the artifact hashes")
	}
}

func TestAnalystScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b := analystPrefix(7, analystLibs, 2000), analystPrefix(7, analystLibs, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	other := analystPrefix(8, analystLibs, 2000)
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds, same schedule")
	}
	for i := range a {
		if a[i].Lib != other[i].Lib || (a[i].Query == "") != (other[i].Query == "") {
			t.Fatalf("request %d: seeds 7 and 8 differ in their access pattern", i)
		}
	}
	seen := map[string]bool{}
	perLib := make([]int, analystLibs)
	warm, repeats, queries := 0, 0, 0
	for _, r := range a {
		perLib[r.Lib]++
		if r.Query == "" {
			warm++
			continue
		}
		queries++
		key := string(rune('0'+r.Lib)) + r.Query
		if seen[key] {
			repeats++
		}
		seen[key] = true
		if _, err := query.Parse([]byte(r.Query)); err != nil {
			t.Fatalf("generated query does not parse: %v\n%s", err, r.Query)
		}
	}
	near := func(got, want float64) bool { return got > want-0.05 && got < want+0.05 }
	for l, k := range perLib {
		want := analystHotShare / analystHotLibs
		if l >= analystHotLibs {
			want = (1 - analystHotShare) / (analystLibs - analystHotLibs)
		}
		if f := float64(k) / float64(len(a)); !near(f, want) {
			t.Errorf("library %d takes %.3f of the requests, want ~%.3f", l, f, want)
		}
	}
	if f := float64(warm) / float64(len(a)); !near(f, analystWarmShare) {
		t.Errorf("warm-resubmit share %.3f, want ~%.2f", f, analystWarmShare)
	}
	if f := float64(repeats) / float64(queries); !near(f, analystRepeat) {
		t.Errorf("repeat share %.3f, want ~%.2f", f, analystRepeat)
	}
}

func TestWhatIfSchedule(t *testing.T) {
	used := map[string]int{"INV_1": 10, "ND2_1": 3, "TIEH_1": 1}
	family := map[string]string{"INV_1": "INV", "INV_2": "INV", "INV_4": "INV", "ND2_1": "ND2", "ND2_2": "ND2", "TIEH_1": "TIEH", "NR2_1": "NR2", "NR2_2": "NR2"}
	pairs := substitutePairs(used, family)
	want := [][2]string{{"INV_1", "INV_2"}, {"INV_1", "INV_4"}, {"ND2_1", "ND2_2"}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("pairs %v, want %v (only used source cells, same family, sorted)", pairs, want)
	}
	many := make([][2]string, 4*substitutesPerCycle+3)
	for i := range many {
		many[i] = [2]string{"A", string(rune('a' + i))}
	}
	s := whatIfSchedule(3, many, 100)
	if !reflect.DeepEqual(s, whatIfSchedule(3, many, 100)) {
		t.Fatal("same seed, different what-if schedules")
	}
	if cycles := len(many) / substitutesPerCycle; len(s) != cycles*(substitutesPerCycle+1) {
		t.Fatalf("%d requests, want %d whole cycles from %d pairs", len(s), cycles, len(many))
	}
	for i, r := range s {
		wantWiden := i%(substitutesPerCycle+1) == substitutesPerCycle
		if (r.Op == "widen") != wantWiden {
			t.Fatalf("request %d is %s: cycles are %d substitutes then a widen", i, r.Op, substitutesPerCycle)
		}
		if r.Op == "widen" && (r.Factor < 1.1 || r.Factor > 2.0) {
			t.Errorf("widen factor %g outside [1.1, 2.0]", r.Factor)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(r.doc(), &doc); err != nil {
			t.Fatal(err)
		}
		if _, err := query.Parse(r.doc()); err != nil {
			t.Errorf("what-if document does not parse: %v", err)
		}
	}
}
