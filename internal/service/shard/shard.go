// Package shard is the cluster tier of the tuning service: a
// coordinator-side work queue with lease-based work stealing, and the
// worker-side poll loop that executes characterization shards.
//
// The unit of work is one contiguous slice [Lo, Hi) of a characterize
// job's N Monte-Carlo instances. Workers pull tasks from the shared
// queue (idle workers pull more — that IS the work stealing; there is
// no per-worker assignment to steal from), generate their slice of the
// delay-sample matrix with the row generator a single node uses
// (variation.SampleRows), and ship the rows back as a
// stdcelltune-shard/2 document (Rows). Every lease carries a TTL and a
// fencing token: a worker renews its lease while it computes, a dead
// or stalled worker's lease expires, the task re-queues, and the next
// completion with the old token is rejected — a shard can therefore be
// computed twice but never counted twice. The coordinator checks the
// documents and copies the rows into one N×E matrix in shard order
// (Assemble); the caller folds that matrix once. A row's bits depend
// only on (seed, instance, cell), so the matrix, and every byte folded
// from it, is the single-node one whatever the shard size, worker
// count or arrival order.
//
// The wire protocol is four JSON POST/GET routes the service handler
// mounts under /v1/cluster (see RegisterRequest and friends); the
// worker side needs only this package and net/http, keeping the
// dependency direction service -> shard. Only this package knows the
// shard document format.
package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"stdcelltune/internal/digest"
	"stdcelltune/internal/obs"
)

// Schema names the two shard documents: a worker's result for one
// characterize task (Rows) and the retained set of a finished group
// (ShardSet).
const Schema = "stdcelltune-shard/2"

// ErrStaleLease rejects a completion whose fencing token no longer
// matches: the lease expired (and possibly re-queued or re-leased)
// before the worker reported back. The worker's result is discarded —
// the current leaseholder's will be the one counted.
var ErrStaleLease = errors.New("shard: stale lease token")

// ErrUnknownNode rejects requests from a node id the coordinator does
// not know (never registered, or the coordinator restarted). Workers
// re-register and retry.
var ErrUnknownNode = errors.New("shard: unknown node")

// ErrNoWorkers fails a task group that stalled with no live workers:
// nothing is leased, the queue is non-empty, and no node has polled
// within the liveness window. The caller (the service pipeline) falls
// back to computing locally.
var ErrNoWorkers = errors.New("shard: no live workers")

// CharTask describes one characterization shard. Everything a worker
// needs to regenerate instances [Lo, Hi) bit-identically is in the
// task: the per-instance RNG streams are named by (seed, instance,
// cell), so where an instance is generated cannot change its bytes.
type CharTask struct {
	// Library is the statistical library name under construction.
	Library string `json:"library"`
	// Corner is the spec corner slug ("typical", "fast", "slow").
	Corner string `json:"corner"`
	Seed   int64  `json:"seed"`
	// CharNoise is the characterization-noise setting of the fold,
	// carried explicitly so the protocol pins it rather than trusting
	// both sides to share a default.
	CharNoise float64 `json:"char_noise"`
	// N/Shards/Index/Lo/Hi mirror Header: this task covers instances
	// [Lo, Hi) of N, as shard Index of Shards.
	N      int `json:"instances"`
	Shards int `json:"shards"`
	Index  int `json:"shard"`
	Lo     int `json:"lo"`
	Hi     int `json:"hi"`
}

// Task is one queued unit of work.
type Task struct {
	ID    string    `json:"id"`
	Group string    `json:"group"`
	Char  *CharTask `json:"characterize,omitempty"`
}

// Lease is a granted task: the worker must Complete it with the exact
// Token before Expires, or the task re-queues for someone else.
type Lease struct {
	Task    Task      `json:"task"`
	Token   string    `json:"token"`
	Expires time.Time `json:"expires"`
}

// Wire bodies of the /v1/cluster routes.
type (
	// RegisterRequest announces a node. PeerAddr optionally advertises
	// an artifact-serving HTTP address for the peer cache tier.
	RegisterRequest struct {
		Name     string `json:"name"`
		PeerAddr string `json:"peer_addr,omitempty"`
	}
	RegisterResponse struct {
		Node       string        `json:"node"`
		LeaseTTLNS time.Duration `json:"lease_ttl_ns"`
	}
	// LeaseRequest polls for a task or, with Task and Token set,
	// renews that lease: a worker renews while it computes, and a stale
	// token is refused (409 on the wire).
	LeaseRequest struct {
		Node  string `json:"node"`
		Task  string `json:"task,omitempty"`
		Token string `json:"token,omitempty"`
	}
	CompleteRequest struct {
		Node   string          `json:"node"`
		Task   string          `json:"task"`
		Token  string          `json:"token"`
		Result json.RawMessage `json:"result,omitempty"`
		Error  string          `json:"error,omitempty"`
	}
	CompleteResponse struct {
		OK bool `json:"ok"`
	}
)

// Stats is the coordinator snapshot served on GET /v1/cluster.
type Stats struct {
	Workers       int   `json:"workers"`
	Nodes         int   `json:"nodes"`
	QueueDepth    int   `json:"queue_depth"`
	Leased        int   `json:"leased"`
	Enqueued      int64 `json:"tasks_enqueued"`
	Completed     int64 `json:"tasks_completed"`
	Steals        int64 `json:"steals"`
	LeaseRenewals int64 `json:"lease_renewals"`
	LeaseExpiries int64 `json:"lease_expiries"`
	StaleRejected int64 `json:"stale_rejected"`
}

// Header describes one shard of a characterize job's delay-sample
// matrix: rows [Lo, Hi) of N, each Width entries wide, as shard Index
// of Shards.
type Header struct {
	Schema  string `json:"schema"`
	Library string `json:"library"`
	N       int    `json:"instances"`
	Shards  int    `json:"shards"`
	Index   int    `json:"shard"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Width   int    `json:"width"`
}

// Rows is a worker's result for one characterize task: its rows of the
// sample matrix, row-major, each float64 as the 8 little-endian bytes
// of its IEEE-754 bits (base64 in JSON). The encoding keeps every bit,
// NaN payloads included, so the assembled matrix is the one a single
// node generates.
type Rows struct {
	Header
	Rows []byte `json:"rows"`
}

// RetainedShard is what a finished group keeps of one shard: its
// header, the length of its row bytes and their SHA-256. The rows
// themselves are not kept; eight retained groups of them would pin
// over 100 MB.
type RetainedShard struct {
	Header
	RowsBytes  int    `json:"rows_bytes"`
	RowsSHA256 string `json:"rows_sha256"`
}

// ShardSet is the retained shard set of one assembled group, in shard
// order: the document GET /v1/cluster/shards/{digest} serves.
type ShardSet struct {
	Schema    string          `json:"schema"`
	Group     string          `json:"group"`
	Instances int             `json:"instances"`
	Shards    []RetainedShard `json:"shards"`
}

// Validate checks the invariants that prove no shard was lost or
// counted twice, lease bounces and steals included: the fixed assembly
// order (shard k at position k), an exact contiguous tiling of
// [0, Instances), one schema, library, instance count, shard count and
// row width across the set, exactly Hi-Lo rows of that width per
// shard, and a SHA-256 on record for each.
func (s *ShardSet) Validate() error {
	switch {
	case s.Schema != Schema:
		return fmt.Errorf("shard set: schema %q, want %q", s.Schema, Schema)
	case s.Instances <= 0:
		return fmt.Errorf("shard set: instances %d not positive", s.Instances)
	case len(s.Shards) == 0:
		return errors.New("shard set: no shards")
	}
	first := s.Shards[0]
	next := 0
	for i, p := range s.Shards {
		switch {
		case p.Schema != Schema:
			return fmt.Errorf("shard %d: schema %q, want %q", i, p.Schema, Schema)
		case p.Index != i:
			return fmt.Errorf("shard %d: at position %d, not in assembly order", p.Index, i)
		case p.Shards != len(s.Shards):
			return fmt.Errorf("shard %d: claims %d shards, set has %d", i, p.Shards, len(s.Shards))
		case p.N != s.Instances:
			return fmt.Errorf("shard %d: %d instances, set has %d", i, p.N, s.Instances)
		case p.Library != first.Library:
			return fmt.Errorf("shard %d: library %q, shard 0 %q", i, p.Library, first.Library)
		case p.Width <= 0 || p.Width != first.Width:
			return fmt.Errorf("shard %d: rows %d wide, shard 0 %d", i, p.Width, first.Width)
		case p.Lo != next || p.Hi <= p.Lo:
			return fmt.Errorf("shard %d: range [%d,%d) does not continue the tiling at %d", i, p.Lo, p.Hi, next)
		case p.RowsBytes != (p.Hi-p.Lo)*p.Width*8:
			return fmt.Errorf("shard %d: %d row bytes, want %d rows of %d entries", i, p.RowsBytes, p.Hi-p.Lo, p.Width)
		case len(p.RowsSHA256) != 64 || strings.Trim(p.RowsSHA256, "0123456789abcdef") != "":
			return fmt.Errorf("shard %d: row digest %q is not a SHA-256", i, p.RowsSHA256)
		}
		next = p.Hi
	}
	if next != s.Instances {
		return fmt.Errorf("shard set: shards end at %d, want %d", next, s.Instances)
	}
	return nil
}

// Options configures a Coordinator.
type Options struct {
	// LeaseTTL bounds how long a worker may sit on a task before it is
	// presumed dead and the task re-queues. Default 10s.
	LeaseTTL time.Duration
	// MaxAttempts bounds how often one task may be (re-)leased before
	// its group fails — the backstop against a shard that crashes every
	// worker. Default 5.
	MaxAttempts int
	// Retain bounds how many assembled groups keep their shard sets
	// queryable via ShardSet. Default 8.
	Retain int
	// Now injects a clock for deterministic tests.
	Now func() time.Time
	// OnRegister, when set, observes node registrations (name and
	// advertised peer address) — the hook the daemon uses to grow the
	// peer-cache tier as workers join.
	OnRegister func(name, peerAddr string)
}

type task struct {
	t        Task
	token    string
	node     string // current leaseholder, "" when queued
	lastNode string // previous leaseholder, for steal accounting
	expires  time.Time
	attempts int
}

type group struct {
	id        string
	results   []json.RawMessage
	remaining int
	err       error
	done      chan struct{}
	progress  time.Time // last enqueue/lease/complete, for stall detection
}

// Coordinator owns the shared work queue. All methods are safe for
// concurrent use; lease expiry is lazy (checked on every entry point
// and on the Run wait loop's tick), so no background goroutine runs
// while the queue is idle.
type Coordinator struct {
	ttl         time.Duration
	maxAttempts int
	retain      int
	now         func() time.Time
	onRegister  func(name, peerAddr string)

	mu       sync.Mutex
	seq      int
	nodes    map[string]time.Time // node id -> last seen
	ready    []*task              // FIFO; re-queued tasks go to the front
	leased   map[string]*task     // task id -> leased task
	groups   map[string]*group
	retained []*ShardSet // most recent finished groups, oldest first

	enqueued, completed, steals, renewals, expiries, stale int64
}

// New builds a coordinator and registers its queue gauges with the
// process metrics registry.
func New(opts Options) *Coordinator {
	c := &Coordinator{
		ttl:         opts.LeaseTTL,
		maxAttempts: opts.MaxAttempts,
		retain:      opts.Retain,
		now:         opts.Now,
		onRegister:  opts.OnRegister,
		nodes:       make(map[string]time.Time),
		leased:      make(map[string]*task),
		groups:      make(map[string]*group),
	}
	if c.ttl <= 0 {
		c.ttl = 10 * time.Second
	}
	if c.maxAttempts <= 0 {
		c.maxAttempts = 5
	}
	if c.retain <= 0 {
		c.retain = 8
	}
	if c.now == nil {
		c.now = time.Now
	}
	reg := obs.Default()
	reg.GaugeFunc("shard.queue_depth", func() float64 { return float64(c.Stats().QueueDepth) })
	reg.GaugeFunc("shard.leased", func() float64 { return float64(c.Stats().Leased) })
	reg.GaugeFunc("shard.workers", func() float64 { return float64(c.Stats().Workers) })
	return c
}

// LeaseTTL reports the configured lease duration.
func (c *Coordinator) LeaseTTL() time.Duration { return c.ttl }

// liveWindow is how recently a node must have polled to count as a
// live worker: three lease TTLs, floored so fast test TTLs don't
// declare the fleet dead between polls.
func (c *Coordinator) liveWindow() time.Duration {
	w := 3 * c.ttl
	if w < 5*time.Second {
		w = 5 * time.Second
	}
	return w
}

// Register adds (or refreshes) a node and returns its id.
func (c *Coordinator) Register(name, peerAddr string) RegisterResponse {
	c.mu.Lock()
	c.seq++
	id := "node-" + strconv.Itoa(c.seq)
	if name != "" {
		id = name + "-" + strconv.Itoa(c.seq)
	}
	c.nodes[id] = c.now()
	hook := c.onRegister
	c.mu.Unlock()
	if hook != nil {
		hook(name, peerAddr)
	}
	obs.Default().Counter("shard.nodes_registered").Add(1)
	return RegisterResponse{Node: id, LeaseTTLNS: c.ttl}
}

// Lease grants the next queued task to the node, or ok=false when the
// queue is empty. Granting a task previously held by a different node
// is a steal (the idle node pulled work a dead or slow one dropped).
func (c *Coordinator) Lease(node string) (Lease, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[node]; !ok {
		return Lease{}, false, ErrUnknownNode
	}
	now := c.now()
	c.nodes[node] = now
	c.expireLocked(now)
	if len(c.ready) == 0 {
		return Lease{}, false, nil
	}
	t := c.ready[0]
	c.ready = c.ready[1:]
	t.attempts++
	if t.attempts > c.maxAttempts {
		c.failGroupLocked(t.t.Group, fmt.Errorf("shard: task %s exceeded %d attempts", t.t.ID, c.maxAttempts))
		return Lease{}, false, nil
	}
	if t.lastNode != "" && t.lastNode != node {
		c.steals++
		obs.Default().Counter("shard.steals").Add(1)
	}
	t.node = node
	t.token = t.t.ID + "#" + strconv.Itoa(t.attempts)
	t.expires = now.Add(c.ttl)
	c.leased[t.t.ID] = t
	if g, ok := c.groups[t.t.Group]; ok {
		g.progress = now
	}
	return Lease{Task: t.t, Token: t.token, Expires: t.expires}, true, nil
}

// Renew extends a lease its holder is still computing by one TTL from
// now. The token must match the current lease exactly, as for
// Complete; a lease that already expired (and possibly re-queued or
// went to another worker) is not revived, but refused with
// ErrStaleLease.
func (c *Coordinator) Renew(node, taskID, token string) (Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[node]; !ok {
		return Lease{}, ErrUnknownNode
	}
	now := c.now()
	c.nodes[node] = now
	c.expireLocked(now)
	t, ok := c.leased[taskID]
	if !ok || t.token != token || t.node != node {
		return Lease{}, ErrStaleLease
	}
	t.expires = now.Add(c.ttl)
	c.renewals++
	obs.Default().Counter("shard.lease_renewals").Add(1)
	return Lease{Task: t.t, Token: t.token, Expires: t.expires}, nil
}

// Complete reports a task's outcome. The fencing token must match the
// current lease exactly; a stale token (expired and re-queued or
// re-leased) is rejected with ErrStaleLease and the result discarded,
// which is what makes a twice-computed shard impossible to count
// twice. A worker-side compute error re-queues the task (front of the
// queue) unless its group already failed.
func (c *Coordinator) Complete(node, taskID, token string, result json.RawMessage, errMsg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[node]; !ok {
		return ErrUnknownNode
	}
	now := c.now()
	c.nodes[node] = now
	c.expireLocked(now)
	t, ok := c.leased[taskID]
	if !ok || t.token != token || t.node != node {
		c.stale++
		obs.Default().Counter("shard.stale_rejected").Add(1)
		return ErrStaleLease
	}
	delete(c.leased, taskID)
	g, ok := c.groups[t.t.Group]
	if !ok {
		// Group cancelled while the task was in flight; drop silently.
		return nil
	}
	g.progress = now
	if errMsg != "" {
		t.node, t.lastNode, t.token = "", t.node, ""
		c.ready = append([]*task{t}, c.ready...)
		obs.Default().Counter("shard.tasks_requeued").Add(1)
		return nil
	}
	g.results[t.t.Char.Index] = result
	g.remaining--
	c.completed++
	obs.Default().Counter("shard.tasks_completed").Add(1)
	if g.remaining == 0 {
		c.finishGroupLocked(g)
	}
	return nil
}

// expireLocked re-queues every lease past its deadline. Re-queued
// tasks go to the front so a recovered shard is retried before new
// work, keeping the stalled job's completion time bounded.
func (c *Coordinator) expireLocked(now time.Time) {
	var expired []*task
	for _, t := range c.leased {
		if now.After(t.expires) {
			expired = append(expired, t)
		}
	}
	// Deterministic re-queue order (map iteration is not).
	sort.Slice(expired, func(i, j int) bool { return expired[i].t.ID < expired[j].t.ID })
	for _, t := range expired {
		delete(c.leased, t.t.ID)
		t.lastNode, t.node, t.token = t.node, "", ""
		c.ready = append([]*task{t}, c.ready...)
		c.expiries++
		obs.Default().Counter("shard.lease_expiries").Add(1)
	}
}

// failGroupLocked fails a group and drops its queued/leased tasks.
func (c *Coordinator) failGroupLocked(id string, err error) {
	g, ok := c.groups[id]
	if !ok {
		return
	}
	g.err = err
	c.finishGroupLocked(g)
	c.dropGroupTasksLocked(id)
}

func (c *Coordinator) dropGroupTasksLocked(id string) {
	kept := c.ready[:0]
	for _, t := range c.ready {
		if t.t.Group != id {
			kept = append(kept, t)
		}
	}
	c.ready = kept
	for tid, t := range c.leased {
		if t.t.Group == id {
			delete(c.leased, tid)
		}
	}
}

func (c *Coordinator) finishGroupLocked(g *group) {
	delete(c.groups, g.id)
	close(g.done)
}

// Run enqueues a task group and blocks until every task completed, the
// group failed, or ctx is cancelled (which drops the group's tasks).
// Results are returned indexed by shard, not by completion order; a
// characterize group's go to Assemble. The
// wait loop ticks at a fraction of the lease TTL to expire abandoned
// leases even when no worker is polling, and fails the group with
// ErrNoWorkers if it stalls with no live workers at all.
func (c *Coordinator) Run(ctx context.Context, id string, tasks []Task) ([]json.RawMessage, error) {
	if len(tasks) == 0 {
		return nil, errors.New("shard: empty task group")
	}
	g := &group{
		id:        id,
		results:   make([]json.RawMessage, len(tasks)),
		remaining: len(tasks),
		done:      make(chan struct{}),
	}
	c.mu.Lock()
	if _, exists := c.groups[id]; exists {
		c.mu.Unlock()
		return nil, fmt.Errorf("shard: group %s already running", id)
	}
	g.progress = c.now()
	c.groups[id] = g
	for i := range tasks {
		c.ready = append(c.ready, &task{t: tasks[i]})
		c.enqueued++
	}
	c.mu.Unlock()
	obs.Default().Counter("shard.tasks_enqueued").Add(int64(len(tasks)))

	tick := c.ttl / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-g.done:
			if g.err != nil {
				return nil, g.err
			}
			return g.results, nil
		case <-ticker.C:
			c.mu.Lock()
			now := c.now()
			c.expireLocked(now)
			if g.err == nil && g.remaining > 0 && c.workersLocked(now) == 0 &&
				now.Sub(g.progress) > c.liveWindow() {
				c.failGroupLocked(id, ErrNoWorkers)
			}
			c.mu.Unlock()
		case <-ctx.Done():
			c.mu.Lock()
			if _, live := c.groups[id]; live {
				delete(c.groups, id)
				c.dropGroupTasksLocked(id)
			}
			c.mu.Unlock()
			return nil, ctx.Err()
		}
	}
}

func (c *Coordinator) workersLocked(now time.Time) int {
	live := 0
	for _, seen := range c.nodes {
		if now.Sub(seen) <= c.liveWindow() {
			live++
		}
	}
	return live
}

// Workers reports how many nodes polled within the liveness window —
// the pipeline's "is distribution worth it" signal.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workersLocked(c.now())
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Workers:       c.workersLocked(c.now()),
		Nodes:         len(c.nodes),
		QueueDepth:    len(c.ready),
		Leased:        len(c.leased),
		Enqueued:      c.enqueued,
		Completed:     c.completed,
		Steals:        c.steals,
		LeaseRenewals: c.renewals,
		LeaseExpiries: c.expiries,
		StaleRejected: c.stale,
	}
}

// ShardSets lists the retained assembled groups, most recent last.
func (c *Coordinator) ShardSets() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.retained))
	for i, s := range c.retained {
		out[i] = s.Group
	}
	return out
}

// ShardSet returns the retained shard set of an assembled group.
func (c *Coordinator) ShardSet(id string) (*ShardSet, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.retained {
		if s.Group == id {
			return s, true
		}
	}
	return nil, false
}

// Assemble checks the results of a finished characterize group and
// copies their rows into one n×width sample matrix (rows are views into
// one slab), then retains the group's shard set. raws must be indexed
// by shard, as Run returns them. Every document must carry the schema,
// library, instance count and width the caller expects, claim the
// set's shard count and its own position, continue the tiling of
// [0, n) where the previous shard ended, and hold exactly Hi-Lo rows;
// anything else fails the whole group, so a lost, duplicated or
// misplaced shard can never reach the fold.
func (c *Coordinator) Assemble(group, library string, n, width int, raws []json.RawMessage) ([][]float64, error) {
	slab := make([]float64, n*width)
	set := &ShardSet{Schema: Schema, Group: group, Instances: n, Shards: make([]RetainedShard, len(raws))}
	next := 0
	for i, raw := range raws {
		var doc Rows
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&doc); err != nil {
			return nil, fmt.Errorf("shard %d: decode: %w", i, err)
		}
		h := doc.Header
		switch {
		case h.Schema != Schema:
			return nil, fmt.Errorf("shard %d: schema %q, want %q", i, h.Schema, Schema)
		case h.Library != library:
			return nil, fmt.Errorf("shard %d: library %q, want %q", i, h.Library, library)
		case h.N != n:
			return nil, fmt.Errorf("shard %d: %d instances, want %d", i, h.N, n)
		case h.Shards != len(raws):
			return nil, fmt.Errorf("shard %d: claims %d shards, set has %d", i, h.Shards, len(raws))
		case h.Index != i:
			return nil, fmt.Errorf("shard %d: document is shard %d", i, h.Index)
		case h.Lo != next || h.Hi <= h.Lo || h.Hi > n:
			return nil, fmt.Errorf("shard %d: range [%d,%d) does not continue [0,%d) of %d", i, h.Lo, h.Hi, next, n)
		case h.Width != width:
			return nil, fmt.Errorf("shard %d: rows %d wide, want %d", i, h.Width, width)
		case len(doc.Rows) != (h.Hi-h.Lo)*width*8:
			return nil, fmt.Errorf("shard %d: %d row bytes, want %d rows of %d entries", i, len(doc.Rows), h.Hi-h.Lo, width)
		}
		dst := slab[h.Lo*width : h.Hi*width]
		for k := range dst {
			dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(doc.Rows[8*k:]))
		}
		set.Shards[i] = RetainedShard{Header: h, RowsBytes: len(doc.Rows), RowsSHA256: digest.Bytes(doc.Rows)}
		next = h.Hi
	}
	if next != n {
		return nil, fmt.Errorf("shards end at %d, want %d", next, n)
	}
	c.mu.Lock()
	c.retained = append(c.retained, set)
	if len(c.retained) > c.retain {
		c.retained = c.retained[len(c.retained)-c.retain:]
	}
	c.mu.Unlock()
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = slab[i*width : (i+1)*width : (i+1)*width]
	}
	return rows, nil
}

// encodeRows is the Rows byte encoding of a run of sample rows.
func encodeRows(rows [][]float64) []byte {
	size := 0
	for _, row := range rows {
		size += 8 * len(row)
	}
	b := make([]byte, 0, size)
	for _, row := range rows {
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// ShardRanges tiles [0, n) into contiguous shards of at most size
// instances (size <= 0 means one shard). The split is a pure function
// of (n, size), never of worker count or timing, and no split changes
// a byte of the assembled matrix: size only schedules.
func ShardRanges(n, size int) [][2]int {
	if size <= 0 {
		size = n
	}
	var out [][2]int
	for lo := 0; lo < n; lo += size {
		out = append(out, [2]int{lo, min(lo+size, n)})
	}
	return out
}

// CharTasks tiles a characterize job into shard tasks over
// ShardRanges(n, size).
func CharTasks(group, library, corner string, seed int64, charNoise float64, n, size int) []Task {
	ranges := ShardRanges(n, size)
	tasks := make([]Task, len(ranges))
	for i, r := range ranges {
		tasks[i] = Task{
			ID:    group + "/char/" + strconv.Itoa(i),
			Group: group,
			Char: &CharTask{
				Library: library, Corner: corner, Seed: seed, CharNoise: charNoise,
				N: n, Shards: len(ranges), Index: i, Lo: r[0], Hi: r[1],
			},
		}
	}
	return tasks
}
