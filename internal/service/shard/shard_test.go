package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced time source: lease expiry becomes a
// pure function of the test script, not of scheduler timing.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// rowsDoc is a one-entry-wide Rows document for shard index of the
// given split of [0, n), row i holding base+i.
func rowsDoc(index, shards, n, lo, hi int, base float64) json.RawMessage {
	rows := make([][]float64, hi-lo)
	for k := range rows {
		rows[k] = []float64{base + float64(lo+k)}
	}
	return mustJSON(Rows{
		Header: Header{Schema: Schema, Library: "stat", N: n, Shards: shards, Index: index, Lo: lo, Hi: hi, Width: 1},
		Rows:   encodeRows(rows),
	})
}

// result is shard i's document of the 8-instance, 4-shard split.
func result(i int) json.RawMessage { return rowsDoc(i, 4, 8, 2*i, 2*i+2, 0) }

// TestKillWorkerMidJob is the deterministic version of the chaos
// smoke's kill: worker A leases a shard and dies silently; the lease
// expires, the shard re-queues, worker B steals it, and A's late
// completion is rejected by the fencing token — the job completes with
// every shard counted exactly once, B's bytes winning.
func TestKillWorkerMidJob(t *testing.T) {
	clock := newFakeClock()
	c := New(Options{LeaseTTL: time.Second, Now: clock.Now})
	a := c.Register("a", "").Node
	b := c.Register("b", "").Node

	tasks := CharTasks("g1", "stat", "typical", 1, 0.02, 8, 2)
	if len(tasks) != 4 {
		t.Fatalf("task count %d, want 4", len(tasks))
	}

	type runOut struct {
		results []json.RawMessage
		err     error
	}
	done := make(chan runOut, 1)
	go func() {
		rs, err := c.Run(context.Background(), "g1", tasks)
		done <- runOut{rs, err}
	}()

	// Wait for the tasks to be enqueued before leasing.
	waitFor(t, func() bool { return c.Stats().QueueDepth+c.Stats().Leased == 4 })

	mustLease := func(node string, wantTask string) Lease {
		t.Helper()
		l, ok, err := c.Lease(node)
		if err != nil || !ok {
			t.Fatalf("Lease(%s): ok=%v err=%v", node, ok, err)
		}
		if l.Task.ID != wantTask {
			t.Fatalf("Lease(%s) granted %s, want %s", node, l.Task.ID, wantTask)
		}
		return l
	}

	l0 := mustLease(a, "g1/char/0")
	if err := c.Complete(a, l0.Task.ID, l0.Token, result(0), ""); err != nil {
		t.Fatal(err)
	}
	// A leases shard 1 and dies silently, mid-shard.
	l1 := mustLease(a, "g1/char/1")

	// B works through the remaining queue.
	l2 := mustLease(b, "g1/char/2")
	if err := c.Complete(b, l2.Task.ID, l2.Token, result(2), ""); err != nil {
		t.Fatal(err)
	}
	l3 := mustLease(b, "g1/char/3")
	if err := c.Complete(b, l3.Task.ID, l3.Token, result(3), ""); err != nil {
		t.Fatal(err)
	}
	// Queue drained; shard 1 still held by the dead worker.
	if _, ok, err := c.Lease(b); ok || err != nil {
		t.Fatalf("queue should be empty while shard 1 is leased (ok=%v err=%v)", ok, err)
	}

	// The lease TTL passes; B's next poll expires it and steals the shard.
	clock.Advance(1500 * time.Millisecond)
	steal := mustLease(b, "g1/char/1")
	if steal.Token == l1.Token {
		t.Fatal("re-lease kept the old fencing token")
	}
	st := c.Stats()
	if st.LeaseExpiries != 1 || st.Steals != 1 {
		t.Fatalf("stats after steal: expiries=%d steals=%d, want 1/1", st.LeaseExpiries, st.Steals)
	}

	// Zombie A reports its stale result: rejected, not double-counted.
	if err := c.Complete(a, l1.Task.ID, l1.Token, json.RawMessage(`{"from":"zombie"}`), ""); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("zombie completion: err=%v, want ErrStaleLease", err)
	}
	if st := c.Stats(); st.StaleRejected != 1 {
		t.Fatalf("stale_rejected=%d, want 1", st.StaleRejected)
	}

	bBytes := rowsDoc(1, 4, 8, 2, 4, 100) // B's recomputation, told apart by its values
	if err := c.Complete(b, steal.Task.ID, steal.Token, bBytes, ""); err != nil {
		t.Fatal(err)
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.results) != 4 {
		t.Fatalf("got %d results, want 4", len(out.results))
	}
	// Results are shard-indexed, and shard 1 is B's recomputation.
	for i, want := range []string{string(result(0)), string(bBytes), string(result(2)), string(result(3))} {
		if string(out.results[i]) != want {
			t.Fatalf("result[%d] = %s, want %s", i, out.results[i], want)
		}
	}

	// Every row is counted exactly once, rows 2-3 from B's recomputation,
	// and the assembled set is retained for obscheck -shard.
	rows, err := c.Assemble("g1", "stat", 8, 1, out.results)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0, 1, 102, 103, 4, 5, 6, 7} {
		if rows[i][0] != want {
			t.Fatalf("row %d = %v, want %v", i, rows[i][0], want)
		}
	}
	set, ok := c.ShardSet("g1")
	if !ok || set.Schema != Schema || set.Instances != 8 || len(set.Shards) != 4 {
		t.Fatalf("ShardSet: ok=%v set=%+v", ok, set)
	}
}

// TestRunNoWorkersStalls: a group with work queued, nothing leased and
// no live node fails with ErrNoWorkers instead of hanging forever.
func TestRunNoWorkersStalls(t *testing.T) {
	clock := newFakeClock()
	c := New(Options{LeaseTTL: 100 * time.Millisecond, Now: clock.Now})
	tasks := CharTasks("g", "stat", "typical", 1, 0.02, 4, 2)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), "g", tasks)
		errc <- err
	}()
	// Jump past the liveness window (only after the group is queued, so
	// its progress stamp predates the jump); the wait loop's real-time
	// tick observes the fake clock and declares the fleet dead.
	waitFor(t, func() bool { return c.Stats().QueueDepth == 2 })
	clock.Advance(10 * time.Second)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrNoWorkers) {
			t.Fatalf("err = %v, want ErrNoWorkers", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not fail with no workers")
	}
}

// TestRunCancelDropsTasks: cancelling the submitting context drops the
// group's queued tasks so they never leak to workers.
func TestRunCancelDropsTasks(t *testing.T) {
	c := New(Options{LeaseTTL: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, "g", CharTasks("g", "stat", "typical", 1, 0.02, 4, 2))
		errc <- err
	}()
	waitFor(t, func() bool { return c.Stats().QueueDepth == 2 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after cancel, want 0", st.QueueDepth)
	}
}

// TestTaskAttemptBound: a shard that keeps getting leased and expiring
// fails its group after MaxAttempts instead of looping forever.
func TestTaskAttemptBound(t *testing.T) {
	clock := newFakeClock()
	c := New(Options{LeaseTTL: time.Second, MaxAttempts: 2, Now: clock.Now})
	n := c.Register("crashy", "").Node
	errc := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), "g", CharTasks("g", "stat", "typical", 1, 0.02, 2, 2))
		errc <- err
	}()
	waitFor(t, func() bool { return c.Stats().QueueDepth == 1 })
	for i := 0; i < 2; i++ {
		if _, ok, err := c.Lease(n); !ok || err != nil {
			t.Fatalf("lease %d: ok=%v err=%v", i, ok, err)
		}
		clock.Advance(1500 * time.Millisecond)
	}
	// Third grant exceeds MaxAttempts=2 and fails the group.
	if _, ok, _ := c.Lease(n); ok {
		t.Fatal("task leased past its attempt bound")
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("group succeeded despite attempt bound")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("group did not fail")
	}
}

// TestLeaseUnknownNode: polls from unregistered nodes are rejected so
// a restarted coordinator forces re-registration.
func TestLeaseUnknownNode(t *testing.T) {
	c := New(Options{})
	if _, _, err := c.Lease("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
	if err := c.Complete("ghost", "t", "tok", nil, ""); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

// TestLeaseRenewalOutlastsTTL: a worker whose compute runs for five
// lease TTLs renews its lease while it computes, so the task completes
// under its first lease — no expiry, no steal, and a second node
// polling all along gets nothing. Lease expiry runs on a fake clock
// that moves only after each renewal lands.
func TestLeaseRenewalOutlastsTTL(t *testing.T) {
	clock := newFakeClock()
	const ttl = 30 * time.Millisecond
	c := New(Options{LeaseTTL: ttl, Now: clock.Now})
	ts := httptest.NewServer(protocolMux(c))
	defer ts.Close()
	thief := c.Register("thief", "").Node

	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{Base: ts.URL, Name: "slow", Poll: time.Millisecond,
		exec: func(ctx context.Context, _ Task) (json.RawMessage, error) {
			select {
			case <-release:
				return rowsDoc(0, 1, 2, 0, 2, 0), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}}
	stopped := make(chan struct{})
	go func() { defer close(stopped); w.Run(ctx) }()
	defer func() { cancel(); <-stopped }()

	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), "g", CharTasks("g", "stat", "typical", 1, 0.02, 2, 2))
		done <- err
	}()
	waitFor(t, func() bool { return c.Stats().Leased == 1 })

	// Ten rounds of: a fresh renewal lands, half a TTL passes, the
	// other node polls. Without renewal the lease would expire in the
	// third round.
	for i := 0; i < 10; i++ {
		before := c.Stats().LeaseRenewals
		waitFor(t, func() bool { return c.Stats().LeaseRenewals > before })
		clock.Advance(ttl / 2)
		if _, ok, err := c.Lease(thief); ok || err != nil {
			t.Fatalf("round %d: the computing task was leased again (ok=%v err=%v)", i, ok, err)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.LeaseExpiries != 0 || st.Steals != 0 || st.Completed != 1 || st.StaleRejected != 0 {
		t.Fatalf("stats %+v, want 1 completion with no expiry, steal or stale report", st)
	}
	// A finished lease is not renewable.
	if _, err := c.Renew(thief, "g/char/0", "g/char/0#1"); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("renewing a completed task: err=%v, want ErrStaleLease", err)
	}
}

// protocolMux serves the worker protocol over a coordinator with the
// status mapping the service handler applies.
func protocolMux(c *Coordinator) http.Handler {
	reply := func(w http.ResponseWriter, v any, err error) {
		switch {
		case errors.Is(err, ErrStaleLease):
			w.WriteHeader(http.StatusConflict)
		case errors.Is(err, ErrUnknownNode):
			w.WriteHeader(http.StatusNotFound)
		case err != nil:
			w.WriteHeader(http.StatusInternalServerError)
		default:
			json.NewEncoder(w).Encode(v)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/nodes", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		json.NewDecoder(r.Body).Decode(&req)
		reply(w, c.Register(req.Name, req.PeerAddr), nil)
	})
	mux.HandleFunc("POST /v1/cluster/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		json.NewDecoder(r.Body).Decode(&req)
		if req.Task != "" {
			l, err := c.Renew(req.Node, req.Task, req.Token)
			reply(w, l, err)
			return
		}
		l, ok, err := c.Lease(req.Node)
		if err == nil && !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		reply(w, l, err)
	})
	mux.HandleFunc("POST /v1/cluster/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		json.NewDecoder(r.Body).Decode(&req)
		reply(w, CompleteResponse{OK: true}, c.Complete(req.Node, req.Task, req.Token, req.Result, req.Error))
	})
	return mux
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}
