package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"stdcelltune"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/query"
	"stdcelltune/internal/service/cache"
	"stdcelltune/internal/service/journal"
	"stdcelltune/internal/service/shard"
)

// SchemaJob is the versioned job-document schema identifier.
const SchemaJob = "stdcelltune-job/1"

// Manager lifecycle errors; the HTTP layer maps both to 503.
var (
	ErrDraining  = errors.New("service: draining, not accepting jobs")
	ErrQueueFull = errors.New("service: job queue full")
)

// Job states.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// journalState maps a job status to its journal record state (the wire
// strings are identical by construction).
func journalState(st Status) journal.State { return journal.State(st) }

// Manager metrics, in the process-default registry next to the cache's.
var (
	jobsSubmitted = obs.Default().Counter("service.jobs_submitted")
	jobsDone      = obs.Default().Counter("service.jobs_done")
	jobsFailed    = obs.Default().Counter("service.jobs_failed")
	jobsCancelled = obs.Default().Counter("service.jobs_cancelled")
	jobsRecovered = obs.Default().Counter("service.jobs_recovered")
	jobPanics     = obs.Default().Counter("service.job_panics")
	// Job wall time on the high-resolution HDR histogram: the serving
	// tier quotes p99/p99.9 off this, where the old power-of-two buckets'
	// factor-of-two error was too coarse.
	jobTime = obs.Default().HDR("service.job_time")

	admitRateLimited = obs.Default().Counter("service.admit_rate_limited")
	admitQuota       = obs.Default().Counter("service.admit_quota_rejected")
	admitBreaker     = obs.Default().Counter("service.admit_breaker_open")
	breakerTrips     = obs.Default().Counter("service.breaker_trips")
)

// Job is one queued or executed pipeline request. All mutable state is
// guarded by mu; View snapshots it for the HTTP layer.
type Job struct {
	ID        string
	Spec      Spec   // normalized
	Digest    string // Spec.Digest(), the cache key
	Tenant    string // API-key header value, "" = anonymous
	RequestID string // X-Request-ID of the submitting request, "" when recovered/internal
	Recovered bool   // re-enqueued from the journal at startup

	runCtx context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// onTerminal is the manager's bookkeeping hook (journal terminal
	// record, tenant quota release, breaker verdict). Called exactly
	// once, with mu held; it must not call back into Job methods.
	onTerminal func(j *Job, st Status, outcome string, err error)

	mu       sync.Mutex
	status   Status
	outcome  string // cache outcome: "hit", "miss" or "shared"
	tracer   *obs.Tracer
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	entry    *cache.Entry
	events   []obs.SpanEvent
	subs     map[chan obs.SpanEvent]struct{}
}

// Err returns the job's terminal error, or nil.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Tracer returns the job's span tracer, nil until the job starts
// running or when tracing is disabled. The GET /v1/jobs/{id}/trace
// endpoint renders it as Chrome trace-event JSON.
func (j *Job) Tracer() *obs.Tracer {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tracer
}

// Entry returns the job's sealed artifact entry once done, else nil.
func (j *Job) Entry() *cache.Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.entry
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel aborts the job: immediately when still queued, via context
// cancellation when running.
func (j *Job) Cancel() {
	j.cancel()
	j.mu.Lock()
	if j.status == StatusQueued {
		j.finish(StatusCancelled, "", nil, context.Canceled)
	}
	j.mu.Unlock()
}

// finish moves the job to a terminal state. Caller holds mu. Idempotent
// so a queued-cancel and the worker's own observation cannot double
// close.
func (j *Job) finish(st Status, outcome string, entry *cache.Entry, err error) {
	if j.status == StatusDone || j.status == StatusFailed || j.status == StatusCancelled {
		return
	}
	j.status, j.outcome, j.entry, j.err = st, outcome, entry, err
	j.finished = time.Now()
	switch st {
	case StatusDone:
		jobsDone.Add(1)
	case StatusFailed:
		jobsFailed.Add(1)
	case StatusCancelled:
		jobsCancelled.Add(1)
	}
	if !j.started.IsZero() {
		jobTime.Observe(j.finished.Sub(j.started))
	}
	// The manager's bookkeeping (fsynced terminal journal record, tenant
	// quota release, breaker verdict) runs before Done() closes: anyone
	// who observes the job terminal may rely on the record being durable
	// and the admission slots free.
	if j.onTerminal != nil {
		j.onTerminal(j, st, outcome, err)
	}
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	close(j.done)
}

// publish appends a span event to the job's history and fans it out to
// subscribers. A slow subscriber loses events rather than stalling the
// pipeline (its catch-up is the replay on resubscribe).
func (j *Job) publish(ev obs.SpanEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe returns the events so far plus a channel of future events.
// The channel closes when the job finishes; unsub releases it earlier.
func (j *Job) Subscribe() (replay []obs.SpanEvent, ch <-chan obs.SpanEvent, unsub func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]obs.SpanEvent(nil), j.events...)
	c := make(chan obs.SpanEvent, 64)
	if j.subs == nil { // terminal: deliver replay only, already closed stream
		close(c)
		return replay, c, func() {}
	}
	j.subs[c] = struct{}{}
	return replay, c, func() {
		j.mu.Lock()
		if _, ok := j.subs[c]; ok {
			delete(j.subs, c)
			close(c)
		}
		j.mu.Unlock()
	}
}

// ArtifactView is the wire form of one cached artifact.
type ArtifactView struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Size   int    `json:"size_bytes"`
}

// JobView is the wire form of a job: the stdcelltune-job/1 document.
type JobView struct {
	Schema    string         `json:"schema"`
	ID        string         `json:"id"`
	Digest    string         `json:"digest"`
	Spec      Spec           `json:"spec"`
	Status    Status         `json:"status"`
	Outcome   string         `json:"cache_outcome,omitempty"`
	RequestID string         `json:"request_id,omitempty"`
	Tenant    string         `json:"tenant,omitempty"`
	Recovered bool           `json:"recovered,omitempty"`
	Error     string         `json:"error,omitempty"`
	HTTPCode  int            `json:"error_status,omitempty"`
	Created   time.Time      `json:"created"`
	Started   *time.Time     `json:"started,omitempty"`
	Finished  *time.Time     `json:"finished,omitempty"`
	Artifacts []ArtifactView `json:"artifacts,omitempty"`
	Events    int            `json:"events"`
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		Schema: SchemaJob, ID: j.ID, Digest: j.Digest, Spec: j.Spec,
		Status: j.status, Outcome: j.outcome, Created: j.created,
		RequestID: j.RequestID, Tenant: j.Tenant, Recovered: j.Recovered,
		Events: len(j.events),
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
		v.HTTPCode = HTTPStatus(j.err)
	}
	if j.entry != nil {
		for _, a := range j.entry.Artifacts {
			v.Artifacts = append(v.Artifacts, ArtifactView{Name: a.Name, SHA256: a.SHA256, Size: a.Size})
		}
	}
	return v
}

// ManagerOptions configures a Manager. The zero value is a sane daemon:
// one worker (the pipeline itself parallelizes on the robust pool), a
// 16-deep queue, the real pipeline as the compute function, no
// durability, no admission limits.
type ManagerOptions struct {
	// Workers is the number of concurrent pipeline executions; 0 means 1.
	Workers int
	// QueueDepth bounds the submitted-but-not-running backlog; 0 means 16.
	QueueDepth int
	// Run overrides the pipeline (tests inject fakes); nil means Run.
	Run func(context.Context, Spec) (map[string][]byte, error)
	// Trace enables per-job tracers whose span events feed the job's
	// SSE stream.
	Trace bool

	// Journal, when non-nil, makes every job state transition durable:
	// accepts and terminal states are fsynced before the submission
	// returns / the job is observed terminal. A failed accept append
	// rejects the submission — durability is the 202 contract.
	Journal *journal.Journal
	// Recovered is the journal replay from Journal's Open: its pending
	// (accepted-or-running) jobs are re-registered and re-enqueued
	// before the manager accepts traffic.
	Recovered []journal.Record

	// MaxRPS is the global submission rate limit in jobs/sec; 0 means
	// unlimited. Rejections are ErrRateLimited with a Retry-After hint.
	MaxRPS float64
	// Burst is the rate limiter's bucket size; 0 means ceil(MaxRPS),
	// minimum 1.
	Burst int
	// TenantQuota bounds concurrently active (queued+running) jobs per
	// tenant (X-API-Key header); 0 means unlimited.
	TenantQuota int
	// BreakerK trips a spec digest's circuit after K consecutive
	// poison failures (panics or quarantine errors); 0 disables the
	// breaker.
	BreakerK int
	// BreakerCooldown is how long a tripped digest stays open before
	// one half-open probe is admitted; 0 means 30s.
	BreakerCooldown time.Duration
	// Now injects the admission clock (tests); nil means time.Now.
	Now func() time.Time

	// Cluster, when non-nil, is the shard coordinator this daemon hosts:
	// the Handler mounts the /v1/cluster routes over it and healthz
	// reports its fleet snapshot. The pipeline that distributes work to
	// it is wired separately (see Pipeline), keeping the queue tier and
	// the compute tier independently testable.
	Cluster *shard.Coordinator
	// Peers, when non-nil, is the peer-cache client whose registered
	// nodes healthz reports; worker registrations that advertise an
	// artifact address are added to it via the coordinator's OnRegister
	// hook.
	Peers *PeerClient
}

// Manager owns the job queue and the artifact cache. One per daemon.
type Manager struct {
	store  *cache.Store
	opts   ManagerOptions
	jnl    *journal.Journal
	bucket *tokenBucket
	brk    *breaker

	baseCtx  context.Context
	baseStop context.CancelFunc
	queue    chan *Job
	wg       sync.WaitGroup

	mu           sync.Mutex
	jobs         map[string]*Job
	order        []string
	seq          int
	draining     bool
	tenantActive map[string]int
	recovered    int

	// qstores caches decoded query stores per library digest, within
	// queryStoreBudget bytes.
	qstores *storeCache[*query.Store]
}

// NewManager builds and starts a manager over the given cache store.
// When opts carries a journal replay, the pending jobs are re-enqueued
// (ahead of the queue-depth budget) before any worker starts, so
// recovery work is first in line after a restart.
func NewManager(store *cache.Store, opts ManagerOptions) *Manager {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.Run == nil {
		opts.Run = Run
	}
	pending := journal.Pending(opts.Recovered)
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		store:   store,
		opts:    opts,
		jnl:     opts.Journal,
		baseCtx: ctx, baseStop: stop,
		queue:        make(chan *Job, opts.QueueDepth+len(pending)),
		jobs:         make(map[string]*Job),
		tenantActive: make(map[string]int),
		qstores:      newStoreCache[*query.Store](queryStoreBudget),
	}
	if opts.MaxRPS > 0 {
		m.bucket = newTokenBucket(opts.MaxRPS, opts.Burst, opts.Now)
	}
	if opts.BreakerK > 0 {
		m.brk = newBreaker(opts.BreakerK, opts.BreakerCooldown, opts.Now)
	}
	obs.Default().GaugeFunc("service.queue_depth", func() float64 { return float64(len(m.queue)) })
	obs.Default().GaugeFunc("service.breaker_open", func() float64 { return float64(m.brk.openCount()) })
	m.recover(pending)
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// recover re-registers and re-enqueues the journal's pending jobs under
// their original IDs. Idempotency comes from the content-addressed
// cache: a recovered spec whose artifacts persisted replays the exact
// cold bytes without recomputing; one that didn't recomputes them —
// byte-identical either way. A pending record whose spec no longer
// validates is journaled failed rather than replayed forever.
func (m *Manager) recover(pending []journal.Record) {
	log := obs.Log()
	for _, rec := range pending {
		// Keep new job IDs clear of recovered ones.
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.Job, "job-")); err == nil && n > m.seq {
			m.seq = n
		}
		var spec Spec
		specErr := json.Unmarshal(rec.Spec, &spec)
		if specErr == nil {
			specErr = spec.Validate()
		}
		if specErr != nil {
			log.Warn("recovery: dropping journaled job with invalid spec", "job", rec.Job, "err", specErr)
			m.journalTerminal(rec.Job, rec.Digest, StatusFailed, "", fmt.Errorf("%w: %v", ErrBadSpec, specErr))
			continue
		}
		norm := spec.Normalized()
		jobCtx, cancel := context.WithCancel(m.baseCtx)
		j := &Job{
			ID: rec.Job, Spec: norm, Digest: norm.Digest(),
			Tenant: rec.Tenant, Recovered: true,
			cancel: cancel, done: make(chan struct{}),
			status: StatusQueued, created: time.Now(),
			subs:       make(map[chan obs.SpanEvent]struct{}),
			onTerminal: m.jobTerminal,
		}
		j.runCtx = jobCtx
		if rec.Digest != "" && rec.Digest != j.Digest {
			log.Warn("recovery: journaled digest disagrees with spec, recomputed", "job", rec.Job, "journaled", rec.Digest, "computed", j.Digest)
		}
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		m.tenantActive[j.Tenant]++
		m.queue <- j // capacity reserved for every pending record
		m.recovered++
		jobsRecovered.Add(1)
	}
	if m.recovered > 0 {
		log.Info("recovery: re-enqueued journaled jobs", "jobs", m.recovered)
	}
}

// Recovered reports how many journaled jobs this manager re-enqueued at
// startup.
func (m *Manager) Recovered() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovered
}

// BreakerOpen reports how many spec digests are currently tripped open.
func (m *Manager) BreakerOpen() int { return m.brk.openCount() }

// Store exposes the artifact cache (the HTTP artifact endpoints read it).
func (m *Manager) Store() *cache.Store { return m.store }

// Cluster exposes the shard coordinator, nil when this daemon does not
// host one (the Handler gates the /v1/cluster routes on it).
func (m *Manager) Cluster() *shard.Coordinator { return m.opts.Cluster }

// Peers exposes the peer-cache client, nil when no peer tier is wired.
func (m *Manager) Peers() *PeerClient { return m.opts.Peers }

// journalTerminal appends a terminal record (fsynced) for a job id.
// Best-effort once the job already finished in memory: a journal write
// failure costs one redundant idempotent replay after a crash, not
// correctness.
func (m *Manager) journalTerminal(id, dig string, st Status, outcome string, err error) {
	if m.jnl == nil {
		return
	}
	rec := journal.Record{
		Job: id, State: journalState(st), Digest: dig, Outcome: outcome,
		Time: time.Now().UTC().Format(time.RFC3339Nano),
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if aerr := m.jnl.Append(rec, true); aerr != nil {
		obs.Log().Warn("journal: terminal append failed", "job", id, "state", st, "err", aerr)
	}
}

// jobTerminal is the Job.onTerminal hook: journal the terminal state,
// release the tenant's quota slot, and feed the breaker its verdict.
// Called with the job's mu held — it must stay off Job methods.
func (m *Manager) jobTerminal(j *Job, st Status, outcome string, err error) {
	m.journalTerminal(j.ID, j.Digest, st, outcome, err)
	m.mu.Lock()
	if m.tenantActive[j.Tenant] > 0 {
		m.tenantActive[j.Tenant]--
		if m.tenantActive[j.Tenant] == 0 {
			delete(m.tenantActive, j.Tenant)
		}
	}
	m.mu.Unlock()
	switch {
	case st == StatusDone:
		m.brk.success(j.Digest)
	case st == StatusFailed && (errors.Is(err, ErrJobPanic) || errors.Is(err, stdcelltune.ErrQuarantined)):
		if m.brk.failure(j.Digest) {
			breakerTrips.Add(1)
			obs.Log().Warn("breaker: tripped spec digest", "digest", j.Digest, "err", err)
		}
	default:
		// Cancellations and non-poison failures carry no poison verdict;
		// just release a half-open probe if this job was one.
		m.brk.settle(j.Digest)
	}
}

// Submit validates and enqueues a spec on behalf of a tenant (the
// X-API-Key header value; empty is the anonymous tenant). The returned
// job is already registered, durable (when a journal is configured,
// the accepted record is fsynced before Submit returns) and
// observable; its terminal state arrives asynchronously.
//
// Admission order: drain state, global rate limit, per-digest circuit
// breaker, per-tenant quota, queue capacity — cheapest and most global
// first, so an overloaded daemon spends no pool time deciding.
func (m *Manager) Submit(spec Spec, tenant string) (*Job, error) {
	return m.SubmitTagged(spec, tenant, "")
}

// SubmitTagged is Submit carrying the originating request's
// X-Request-ID, which then appears on the job document, the accept log
// line and the job's trace spans — the correlation chain.
func (m *Manager) SubmitTagged(spec Spec, tenant, requestID string) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	norm := spec.Normalized()
	dig := norm.Digest()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	if ok, retry := m.bucket.take(); !ok {
		admitRateLimited.Add(1)
		return nil, withRetryAfter(ErrRateLimited, retry)
	}
	probeHeld := false
	if ok, retry := m.brk.allow(dig); !ok {
		admitBreaker.Add(1)
		return nil, withRetryAfter(fmt.Errorf("%w %s", ErrCircuitOpen, dig), retry)
	} else {
		probeHeld = true // allow may have admitted a half-open probe
	}
	release := func() { // undo the probe hold on any later rejection
		if probeHeld {
			m.brk.settle(dig)
		}
	}
	if m.opts.TenantQuota > 0 && m.tenantActive[tenant] >= m.opts.TenantQuota {
		release()
		admitQuota.Add(1)
		return nil, fmt.Errorf("%w (tenant %q, limit %d)", ErrTenantQuota, tenant, m.opts.TenantQuota)
	}
	if len(m.queue) >= cap(m.queue) {
		release()
		return nil, ErrQueueFull
	}
	m.seq++
	id := fmt.Sprintf("job-%d", m.seq)
	if m.jnl != nil {
		rawSpec, err := json.Marshal(norm)
		if err != nil {
			release()
			return nil, fmt.Errorf("service: encode spec for journal: %w", err)
		}
		rec := journal.Record{
			Job: id, State: journal.StateAccepted, Digest: dig,
			Spec: rawSpec, Tenant: tenant,
			Time: time.Now().UTC().Format(time.RFC3339Nano),
		}
		if err := m.jnl.Append(rec, true); err != nil {
			release()
			m.seq--
			return nil, fmt.Errorf("service: journal accept: %w", err)
		}
	}
	jobCtx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		ID: id, Spec: norm, Digest: dig, Tenant: tenant, RequestID: requestID,
		cancel: cancel, done: make(chan struct{}),
		status: StatusQueued, created: time.Now(),
		subs:       make(map[chan obs.SpanEvent]struct{}),
		onTerminal: m.jobTerminal,
	}
	j.runCtx = jobCtx
	m.queue <- j // guaranteed room: length checked above under mu
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.tenantActive[tenant]++
	jobsSubmitted.Add(1)
	obs.Log().Info("job accepted", "job", id, "digest", dig, "tenant", tenant, "request_id", requestID)
	return j, nil
}

// Job returns a registered job by id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs lists all registered jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// JobsPage returns up to limit jobs starting at the opaque cursor's
// position in the accept sequence, plus the cursor addressing the next
// page ("" when exhausted). The accept sequence is append-only, so a
// cursor taken now stays valid — and stable — while new jobs arrive.
func (m *Manager) JobsPage(limit int, cursor string) ([]*Job, string, error) {
	start := 0
	if cursor != "" {
		off, err := query.DecodeCursor(cursor)
		if err != nil {
			return nil, "", err
		}
		start = off
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if start > len(m.order) {
		start = len(m.order)
	}
	end := len(m.order)
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	out := make([]*Job, 0, end-start)
	for _, id := range m.order[start:end] {
		out = append(out, m.jobs[id])
	}
	next := ""
	if end < len(m.order) {
		next = query.EncodeCursor(end)
	}
	return out, next, nil
}

// Draining reports whether the manager has stopped accepting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain stops accepting new jobs, cancels nothing, and waits for the
// in-flight and queued jobs to finish or for ctx to expire — the
// SIGTERM half of graceful shutdown. On ctx expiry the remaining jobs
// are cancelled hard.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	m.mu.Unlock()
	if !already {
		close(m.queue)
	}
	finished := make(chan struct{})
	go func() { m.wg.Wait(); close(finished) }()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		m.baseStop() // hard-cancel stragglers, then wait for them
		<-finished
		return ctx.Err()
	}
}

// worker drains the queue, executing one job at a time through the
// content-addressed cache's single-flight front.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.execute(j)
	}
}

func (m *Manager) execute(j *Job) {
	var tr *obs.Tracer
	if m.opts.Trace {
		tr = obs.NewTracer(time.Now)
		tr.SetSink(j.publish)
	}
	j.mu.Lock()
	if j.status != StatusQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.tracer = tr
	j.mu.Unlock()

	if m.jnl != nil {
		// Running records ride the page cache: losing one just re-runs
		// an idempotent job, so no fsync on the hot path.
		rec := journal.Record{
			Job: j.ID, State: journal.StateRunning, Digest: j.Digest,
			Time: time.Now().UTC().Format(time.RFC3339Nano),
		}
		if err := m.jnl.Append(rec, false); err != nil {
			obs.Log().Warn("journal: running append failed", "job", j.ID, "err", err)
		}
	}

	ctx := j.runCtx
	var root *obs.Span
	if tr != nil {
		ctx = obs.WithTracer(ctx, tr)
		// The root span carries the correlation chain: API clients see the
		// same request_id on the job document, the accept log line, the
		// SSE stream and this span in the Chrome trace.
		root = tr.Start("job", "service", "job", j.ID, "digest", j.Digest, "request_id", j.RequestID)
	}
	entry, outcome, err := m.store.GetOrCompute(ctx, j.Digest, func(ctx context.Context) (blobs map[string][]byte, err error) {
		// A panicking pipeline must not take the worker down: the panic
		// becomes a typed failure the breaker can count.
		defer func() {
			if r := recover(); r != nil {
				jobPanics.Add(1)
				err = fmt.Errorf("%w: %v", ErrJobPanic, r)
			}
		}()
		return m.opts.Run(ctx, j.Spec)
	})
	root.Set("cache_outcome", outcome)
	root.End()

	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case err == nil:
		j.finish(StatusDone, outcome, entry, nil)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StatusCancelled, outcome, nil, err)
	default:
		j.finish(StatusFailed, outcome, nil, err)
	}
}

// Digests returns the cached digests sorted — the artifact listing.
func (m *Manager) Digests() []string {
	d := m.store.Digests()
	sort.Strings(d)
	return d
}
