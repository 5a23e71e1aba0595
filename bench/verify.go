package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
)

// pinnedJSON holds output digests recorded at the seed commit for seeds
// 1 and 2 at full size: workload -> seed -> per-operation digests in
// request order. A run with a pinned seed must reproduce every digest
// it has a pin for.
//
//go:embed pinned.json
var pinnedJSON []byte

func pinnedDigests(workload string, seed int64) ([]string, error) {
	var all map[string]map[string][]string
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	return all[workload][strconv.FormatInt(seed, 10)], nil
}

// checkPinned compares the run's output digests with the pinned ones
// over the operations both have. Only full-size runs are pinned.
func checkPinned(r *Report, c config) error {
	if !c.size.pinned {
		return nil
	}
	want, err := pinnedDigests(r.Workload, r.Seed)
	if err != nil || len(want) == 0 {
		return err
	}
	n := min(len(want), len(r.OutputDigests))
	bad := 0
	first := -1
	for i := 0; i < n; i++ {
		if want[i] != r.OutputDigests[i] {
			bad++
			if first < 0 {
				first = i
			}
		}
	}
	detail := fmt.Sprintf("%d of %d operations match the digests pinned for seed %d", n-bad, n, r.Seed)
	if bad > 0 {
		detail += fmt.Sprintf(", first mismatch at operation %d", first)
	}
	r.check("pinned-digests", bad == 0 && n > 0, "%s", detail)
	return nil
}

// sample picks up to k distinct indices of [0, n), seeded.
func sample(rng *rand.Rand, n, k int) []int {
	perm := rng.Perm(n)
	if k < n {
		perm = perm[:k]
	}
	return perm
}
