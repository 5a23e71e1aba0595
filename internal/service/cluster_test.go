package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"stdcelltune/internal/digest"
	"stdcelltune/internal/service/cache"
	"stdcelltune/internal/service/shard"
)

// clusterSpec is the scaled-down request the cluster round trip uses:
// enough instances for multiple shards at ShardSize 2.
var clusterSpec = Spec{
	Design: "mcu-small", Instances: 5, Seed: 1,
	Method: "sigma-ceiling", Bound: 0.02, ClockNS: 6,
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// sameArtifacts fails unless got holds exactly want's artifacts, byte
// for byte.
func sameArtifacts(t *testing.T, label string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d artifacts, single-node run produced %d", label, len(got), len(want))
	}
	for name, wb := range want {
		if !bytes.Equal(got[name], wb) {
			t.Errorf("%s: artifact %s differs from the single-node run", label, name)
		}
	}
}

// TestClusterEndToEnd: one digest names one byte string. Every
// execution mode of the characterize stage — the cluster at several
// shard sizes, and the simulated characterizer latency — must produce
// all seven artifacts byte-identical to the plain single-node Run.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full cluster pipeline over HTTP")
	}
	direct, err := Run(context.Background(), clusterSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("shardsize-%d", size), func(t *testing.T) {
			clusterRoundTrip(t, size, direct)
		})
	}
	t.Run("simcharlatency", func(t *testing.T) {
		got, err := (&Pipeline{SimCharLatency: time.Microsecond}).Run(context.Background(), clusterSpec)
		if err != nil {
			t.Fatal(err)
		}
		sameArtifacts(t, "simulated latency", got, direct)
	})
}

// clusterRoundTrip drives the cluster tier in-process: a
// coordinator-hosting daemon, two real workers polling its HTTP cluster
// routes, a submitted job whose characterize stage runs as shards of
// the given size, and the retained shard set queryable afterwards.
func clusterRoundTrip(t *testing.T, size int, direct map[string][]byte) {
	coord := shard.New(shard.Options{LeaseTTL: 5 * time.Second})
	p := &Pipeline{Cluster: coord, ShardSize: size}
	store, _ := cache.New("")
	m := NewManager(store, ManagerOptions{Run: p.Run, Cluster: coord, Trace: true})
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		w := &shard.Worker{Base: ts.URL, Name: name, Poll: 2 * time.Millisecond}
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}
	defer wg.Wait()
	defer cancel()
	waitUntil(t, "workers registered", func() bool { return coord.Workers() == 2 })

	v := postJob(t, ts, clusterSpec)
	done := awaitJob(t, ts, m, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("cluster job failed: %s (%d)", done.Error, done.HTTPCode)
	}
	if done.Outcome != "miss" {
		t.Fatalf("cold cluster outcome %q, want miss", done.Outcome)
	}

	// The shard queue actually did the characterize work: one task per
	// shard of the split, enqueued and completed, none lost.
	tasks := int64(len(shard.ShardRanges(clusterSpec.Instances, size)))
	st := coord.Stats()
	if st.Enqueued != tasks || st.Completed != tasks {
		t.Fatalf("coordinator stats: enqueued=%d completed=%d, want %d/%d", st.Enqueued, st.Completed, tasks, tasks)
	}
	if st.QueueDepth != 0 || st.Leased != 0 {
		t.Fatalf("queue not drained: depth=%d leased=%d", st.QueueDepth, st.Leased)
	}

	// Every artifact, as served, is the single-node run's bytes.
	served := make(map[string][]byte, len(done.Artifacts))
	for name := range direct {
		served[name] = getBytes(t, ts.URL+"/v1/artifacts/"+done.Digest+"/"+name)
	}
	if len(done.Artifacts) != len(direct) {
		t.Fatalf("cluster job lists %d artifacts, single-node produced %d", len(done.Artifacts), len(direct))
	}
	sameArtifacts(t, fmt.Sprintf("shard size %d", size), served, direct)

	// The retained shard set is served over HTTP and holds its
	// invariants.
	var set shard.ShardSet
	if err := json.Unmarshal(getBytes(t, ts.URL+"/v1/cluster/shards/"+done.Digest), &set); err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if set.Instances != clusterSpec.Instances || int64(len(set.Shards)) != tasks {
		t.Fatalf("retained shard set: instances=%d shards=%d, want %d/%d", set.Instances, len(set.Shards), clusterSpec.Instances, tasks)
	}

	// Cluster state shows up on the operational surfaces.
	var stats shard.Stats
	if err := json.Unmarshal(getBytes(t, ts.URL+"/v1/cluster"), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Completed != tasks {
		t.Fatalf("GET /v1/cluster completed=%d, want %d", stats.Completed, tasks)
	}
	var health map[string]any
	if err := json.Unmarshal(getBytes(t, ts.URL+"/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["cluster"]; !ok {
		t.Fatal("healthz on a coordinator lacks the cluster section")
	}

	// A sharded re-run of the same spec is a cache hit — the cluster sits
	// behind the content-addressed tier, not beside it.
	again := postJob(t, ts, clusterSpec)
	if doc := awaitJob(t, ts, m, again.ID); doc.Outcome != "hit" {
		t.Fatalf("warm cluster outcome %q, want hit", doc.Outcome)
	}
}

// TestClusterFallbackLocal: when the fleet dies mid-wait (registered
// node goes silent past the liveness window), the characterize stage
// falls back to local computation and the job still succeeds — with
// bytes identical to the plain single-node pipeline.
func TestClusterFallbackLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	clock := struct {
		mu sync.Mutex
		t  time.Time
	}{t: time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC)}
	now := func() time.Time {
		clock.mu.Lock()
		defer clock.mu.Unlock()
		return clock.t
	}
	coord := shard.New(shard.Options{LeaseTTL: 100 * time.Millisecond, Now: now})
	coord.Register("ghost", "") // live at t0, never polls again

	p := &Pipeline{Cluster: coord, ShardSize: 2}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		// Once the characterize tasks are queued, jump the fake clock past
		// the liveness window: the ghost node is declared dead and the
		// group fails with ErrNoWorkers.
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if coord.Stats().QueueDepth > 0 {
				clock.mu.Lock()
				clock.t = clock.t.Add(time.Minute)
				clock.mu.Unlock()
				return
			}
		}
	}()

	got, err := p.Run(context.Background(), clusterSpec)
	if err != nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	want, err := Run(context.Background(), clusterSpec)
	if err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, "fallback", got, want)
	if st := coord.Stats(); st.QueueDepth != 0 {
		t.Fatalf("failed group left %d tasks queued", st.QueueDepth)
	}
}

// TestCachePeerTier: a local miss fills from a peer's verified artifact
// set (outcome "peer", compute never invoked); a peer serving corrupt
// bytes is rejected whole and the store computes locally instead.
func TestCachePeerTier(t *testing.T) {
	blobs := map[string][]byte{
		"spec.json":   []byte(`{"x":1}` + "\n"),
		"statlib.lib": []byte("library (x) {}\n"),
	}
	const dig = "sha256:feedface"

	// Node A has the entry and serves the real artifact routes.
	storeA, _ := cache.New("")
	if _, err := storeA.Put(dig, blobs); err != nil {
		t.Fatal(err)
	}
	mA := NewManager(storeA, ManagerOptions{})
	tsA := httptest.NewServer(Handler(mA))
	defer tsA.Close()

	// Node B misses locally and fills from A without computing.
	storeB, _ := cache.New("")
	storeB.SetPeerFetch(NewPeerClient([]string{tsA.URL}).Fetch)
	entry, outcome, err := storeB.GetOrCompute(context.Background(), dig,
		func(context.Context) (map[string][]byte, error) {
			t.Error("compute ran despite a peer having the entry")
			return blobs, nil
		})
	if err != nil || outcome != "peer" {
		t.Fatalf("peer fill: outcome=%q err=%v, want peer/nil", outcome, err)
	}
	for name, want := range blobs {
		a := entry.Artifact(name)
		if a == nil {
			t.Fatalf("peer-filled artifact %s missing", name)
		}
		if got, err := a.Bytes(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("peer-filled artifact %s differs (%v)", name, err)
		}
	}
	// The fill is sealed: a second request is a plain local hit.
	if _, outcome, _ := storeB.GetOrCompute(context.Background(), dig, nil); outcome != "hit" {
		t.Fatalf("second read outcome %q, want hit", outcome)
	}

	// A peer whose blobs do not match their declared hashes is rejected
	// whole; the store falls through to the local compute.
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/artifacts/" + dig:
			fmt.Fprintf(w, `{"digest":%q,"artifacts":[{"name":"spec.json","sha256":%q,"size_bytes":8}]}`,
				dig, digest.Bytes(blobs["spec.json"]))
		default:
			w.Write([]byte("tampered bytes"))
		}
	}))
	defer evil.Close()
	storeC, _ := cache.New("")
	storeC.SetPeerFetch(NewPeerClient([]string{evil.URL}).Fetch)
	computed := false
	_, outcome, err = storeC.GetOrCompute(context.Background(), dig,
		func(context.Context) (map[string][]byte, error) {
			computed = true
			return blobs, nil
		})
	if err != nil || outcome != "miss" || !computed {
		t.Fatalf("corrupt peer: outcome=%q computed=%v err=%v, want miss/true/nil", outcome, computed, err)
	}
}
