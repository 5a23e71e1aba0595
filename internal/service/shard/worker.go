package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"stdcelltune/internal/obs"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/variation"
)

// Executor computes shard tasks: a characterize task's rows [Lo, Hi)
// of the delay-sample matrix, from the row generator a single node uses
// (variation.SampleRows), so each row is bit-identical to the one the
// single-node path would have generated at the same index.
type Executor struct {
	// SimCharLatency, when positive, sleeps this long per generated
	// row, modeling an external characterizer (a SPICE run per
	// instance) whose latency — not local CPU — bounds the work. It is
	// the knob the cluster benchmarks use to measure scheduling speedup
	// honestly on a small CI box, and it never changes a byte.
	SimCharLatency time.Duration

	mu   sync.Mutex
	cats map[string]*stdcell.Catalogue
}

func (e *Executor) catalogue(corner stdcell.Corner) *stdcell.Catalogue {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cats == nil {
		e.cats = make(map[string]*stdcell.Catalogue)
	}
	cat, ok := e.cats[corner.Name()]
	if !ok {
		cat = stdcell.NewCatalogue(corner)
		e.cats[corner.Name()] = cat
	}
	return cat
}

func cornerFromSlug(slug string) (stdcell.Corner, bool) {
	switch slug {
	case "typical":
		return stdcell.Typical, true
	case "fast":
		return stdcell.Fast, true
	case "slow":
		return stdcell.Slow, true
	}
	return 0, false
}

// Execute runs one task and returns its serialized result (a Rows
// document for characterize tasks).
func (e *Executor) Execute(ctx context.Context, t Task) (json.RawMessage, error) {
	if t.Char == nil {
		return nil, fmt.Errorf("shard: task %s carries no payload", t.ID)
	}
	ct := t.Char
	corner, ok := cornerFromSlug(ct.Corner)
	if !ok {
		return nil, fmt.Errorf("shard: task %s has unknown corner %q", t.ID, ct.Corner)
	}
	cat := e.catalogue(corner)
	cfg := variation.Config{N: ct.N, Seed: ct.Seed, CharNoise: ct.CharNoise}
	rows, err := variation.SampleRows(ctx, cat, cfg, ct.Lo, ct.Hi, e.SimCharLatency)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(Rows{
		Header: Header{
			Schema: Schema, Library: ct.Library, N: ct.N, Shards: ct.Shards, Index: ct.Index,
			Lo: ct.Lo, Hi: ct.Hi, Width: cat.Layout().Entries,
		},
		Rows: encodeRows(rows),
	})
	if err != nil {
		return nil, fmt.Errorf("shard: encode rows: %w", err)
	}
	return raw, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Worker is the client side of the cluster protocol: register with the
// coordinator, then poll for leases, execute, and complete, until the
// context is cancelled. Network failures back off and retry — a worker
// is a daemon that outlives coordinator restarts (ErrUnknownNode after
// a restart triggers re-registration).
type Worker struct {
	// Base is the coordinator's base URL, e.g. "http://127.0.0.1:8372".
	Base string
	// Name labels the worker in coordinator state and logs.
	Name string
	// PeerAddr, when set, advertises this worker's own artifact endpoint
	// (host:port of its stcd HTTP listener) at registration; the
	// coordinator feeds it to the peer cache tier.
	PeerAddr string
	// Exec computes the tasks; its SimCharLatency models external
	// characterizer latency.
	Exec Executor
	// Poll is the idle poll interval. Default 100ms.
	Poll time.Duration
	// Client is the HTTP client; default has a 30s timeout.
	Client *http.Client

	// exec, when set, replaces Exec.Execute (tests).
	exec func(context.Context, Task) (json.RawMessage, error)
}

// Run executes the worker loop until ctx is cancelled. Only a nil or
// ctx error is returned: transient coordinator failures are retried
// with backoff, not surfaced.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	log := obs.Log().With("worker", w.Name, "coordinator", w.Base)

	node := ""
	var ttl time.Duration
	backoff := poll
	for ctx.Err() == nil {
		if node == "" {
			reg, err := w.register(ctx)
			if err != nil {
				log.Warn("register failed; backing off", "err", err, "backoff", backoff.String())
				if err := sleepCtx(ctx, backoff); err != nil {
					return err
				}
				if backoff < 5*time.Second {
					backoff *= 2
				}
				continue
			}
			node, ttl = reg.Node, reg.LeaseTTLNS
			backoff = poll
			log.Info("registered", "node", node, "lease_ttl", reg.LeaseTTLNS.String())
		}

		lease, ok, err := w.lease(ctx, LeaseRequest{Node: node})
		if err != nil {
			if errors.Is(err, ErrUnknownNode) {
				log.Warn("coordinator forgot this node; re-registering")
				node = ""
				continue
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			log.Warn("lease poll failed; backing off", "err", err, "backoff", backoff.String())
			if err := sleepCtx(ctx, backoff); err != nil {
				return err
			}
			if backoff < 5*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = poll
		if !ok {
			if err := sleepCtx(ctx, poll); err != nil {
				return err
			}
			continue
		}

		result, execErr := w.execute(ctx, node, lease, ttl)
		req := CompleteRequest{Node: node, Task: lease.Task.ID, Token: lease.Token}
		if execErr != nil {
			if ctx.Err() != nil {
				// Dying mid-shard: don't report, let the lease expire and
				// the shard re-queue — the path the chaos smoke SIGKILLs.
				return ctx.Err()
			}
			req.Error = execErr.Error()
			log.Warn("task failed", "task", lease.Task.ID, "err", execErr)
		} else {
			req.Result = result
		}
		if err := w.complete(ctx, req); err != nil {
			switch {
			case errors.Is(err, ErrStaleLease):
				obs.Default().Counter("shard.worker_stale_completions").Add(1)
				log.Warn("completion rejected: lease expired before report", "task", lease.Task.ID)
			case errors.Is(err, ErrUnknownNode):
				node = ""
			case ctx.Err() != nil:
				return ctx.Err()
			default:
				log.Warn("complete failed", "task", lease.Task.ID, "err", err)
			}
			continue
		}
		if execErr == nil {
			obs.Default().Counter("shard.worker_tasks_done").Add(1)
		}
	}
	return ctx.Err()
}

// execute runs a leased task and, while it computes, renews the lease
// every ttl/3, so a compute that outlasts the TTL is not mistaken for a
// dead worker. Renewal stops when the compute returns or ctx ends: a
// killed worker stops renewing, and its lease expires as before. A
// refused renewal means the lease is already lost; the compute runs on,
// and its completion will be refused the same way.
func (w *Worker) execute(ctx context.Context, node string, l Lease, ttl time.Duration) (json.RawMessage, error) {
	rctx, stop := context.WithCancel(ctx)
	renewed := make(chan struct{})
	go func() {
		defer close(renewed)
		if ttl <= 0 {
			return
		}
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-rctx.Done():
				return
			case <-tick.C:
			}
			_, _, err := w.lease(rctx, LeaseRequest{Node: node, Task: l.Task.ID, Token: l.Token})
			if errors.Is(err, ErrStaleLease) {
				obs.Log().Warn("lease lost while computing", "worker", w.Name, "task", l.Task.ID)
				return
			}
		}
	}()
	exec := w.exec
	if exec == nil {
		exec = w.Exec.Execute
	}
	result, err := exec(ctx, l.Task)
	stop()
	<-renewed
	return result, err
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (w *Worker) register(ctx context.Context) (RegisterResponse, error) {
	var resp RegisterResponse
	err := w.post(ctx, "/v1/cluster/nodes", RegisterRequest{Name: w.Name, PeerAddr: w.PeerAddr}, &resp)
	return resp, err
}

// lease posts a lease request: a poll for the next task, or a renewal
// when lr names a task and token.
func (w *Worker) lease(ctx context.Context, lr LeaseRequest) (Lease, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+"/v1/cluster/lease",
		bytes.NewReader(mustJSON(lr)))
	if err != nil {
		return Lease{}, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := w.client().Do(req)
	if err != nil {
		return Lease{}, false, err
	}
	defer res.Body.Close()
	switch res.StatusCode {
	case http.StatusNoContent:
		io.Copy(io.Discard, res.Body)
		return Lease{}, false, nil
	case http.StatusOK:
		var l Lease
		if err := json.NewDecoder(res.Body).Decode(&l); err != nil {
			return Lease{}, false, fmt.Errorf("shard: decode lease: %w", err)
		}
		return l, true, nil
	case http.StatusConflict:
		io.Copy(io.Discard, res.Body)
		return Lease{}, false, ErrStaleLease
	case http.StatusNotFound:
		io.Copy(io.Discard, res.Body)
		return Lease{}, false, ErrUnknownNode
	default:
		body, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		return Lease{}, false, fmt.Errorf("shard: lease: %s: %s", res.Status, bytes.TrimSpace(body))
	}
}

func (w *Worker) complete(ctx context.Context, creq CompleteRequest) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+"/v1/cluster/complete",
		bytes.NewReader(mustJSON(creq)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := w.client().Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	switch res.StatusCode {
	case http.StatusOK:
		io.Copy(io.Discard, res.Body)
		return nil
	case http.StatusConflict:
		io.Copy(io.Discard, res.Body)
		return ErrStaleLease
	case http.StatusNotFound:
		io.Copy(io.Discard, res.Body)
		return ErrUnknownNode
	default:
		body, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		return fmt.Errorf("shard: complete: %s: %s", res.Status, bytes.TrimSpace(body))
	}
}

func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+path, bytes.NewReader(mustJSON(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := w.client().Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		return fmt.Errorf("shard: %s: %s: %s", path, res.Status, bytes.TrimSpace(payload))
	}
	return json.NewDecoder(res.Body).Decode(out)
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire types marshal by construction
	}
	return raw
}
