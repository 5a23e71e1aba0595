// Command stcd is the standard-cell tuning daemon: the paper's full
// pipeline (characterize -> tune -> restrict -> synthesize -> analyze
// variation) served on demand as asynchronous HTTP/JSON jobs.
//
//	stcd -addr :8372 -cachedir /var/cache/stcd -statedir /var/lib/stcd
//
// The HTTP surface is stdcelltune-api/2 (see docs/API.md): jobs,
// digest-addressed libraries, and a structured query layer over a
// finished run's cells, windows, instances and results — including
// what-if substitution and window-widening evaluated by incremental
// reanalysis (POST /v2/libraries/{digest}/query, see internal/query).
// The original /v1 routes remain as byte-identical compatibility
// shims. Identical specs share one content-addressed cache entry, so a
// warm request returns the cold run's bytes without recomputing (see
// internal/service and internal/service/cache); query results share
// the same cache, keyed by (library digest, normalized query). With
// -statedir every job state transition is
// journaled (stdcelltune-journal/1, fsynced on accept and terminal
// states), so a crash — SIGKILL, OOM, power — loses no accepted job: on
// restart the journal replays, pending jobs re-enqueue, and warm specs
// replay their cached bytes exactly. SIGINT/SIGTERM drains gracefully:
// new submissions get 503 while in-flight jobs finish, bounded by
// -draintimeout.
//
// Flags:
//
//	-addr           listen address (default 127.0.0.1:8372; use :0 for an ephemeral port)
//	-addrfile       write the bound address to this file once listening (smoke harnesses)
//	-cachedir       persist the artifact cache here; empty = memory only
//	-statedir       durable job journal + shutdown manifest here; empty = no crash safety
//	-workers        concurrent pipeline executions (default 1; the pipeline itself parallelizes)
//	-queue          queued-job backlog bound (default 16)
//	-maxrps         global submission rate limit, jobs/sec (0 = unlimited; rejections are 429 + Retry-After)
//	-burst          rate-limiter burst size (0 = ceil(maxrps))
//	-tenantquota    max concurrently active jobs per tenant / X-API-Key (0 = unlimited; 429 on excess)
//	-breakerk       trip a spec digest after K consecutive panic/quarantine failures (0 = breaker off)
//	-breakercooldown how long a tripped digest stays open before one probe (default 30s)
//	-draintimeout   graceful-shutdown bound (default 60s)
//	-chaos          fault-injection spec, e.g. 'journal.done.write=torn' (crash harness; see internal/service/chaos)
//	-chaosseed      deterministic seed for -chaos decisions
//	-debugaddr      also serve expvar/pprof/obs debug surface + /metrics on this address
//	-profiledir     write cpu.pprof (whole lifetime) and heap.pprof (at shutdown) here
//	-log            log level: debug, info, warn, error (default info)
//
// Cluster flags (see DESIGN.md §15):
//
//	-cluster        host a shard coordinator: characterize stages distribute to
//	                registered workers and /v1/cluster routes mount
//	-worker         run as a worker instead of a daemon (requires -join)
//	-join           coordinator base URL a worker registers with
//	-name           worker name label (default host-pid)
//	-leasetimeout   shard lease TTL before a silent worker's task re-queues (default 10s);
//	                a computing worker renews its lease every third of it
//	-shardsize      Monte-Carlo instances per shard task (default 25); scheduling
//	                only: no shard size changes a byte of the artifacts
//	-peers          comma-separated peer stcd addresses for the peer cache tier
//	-peeraddr       artifact address a worker advertises at registration
//	-simcharlatency simulated external-characterizer latency per generated sample row,
//	                local or on a worker (benchmarks); timing only, never bytes
//
// GET /metrics on the main address serves the Prometheus text
// exposition (format 0.0.4) of the process registry, including the
// per-route RED series the instrument middleware records.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"stdcelltune/internal/obs"
	"stdcelltune/internal/obs/debughttp"
	"stdcelltune/internal/service"
	"stdcelltune/internal/service/cache"
	"stdcelltune/internal/service/chaos"
	"stdcelltune/internal/service/journal"
	"stdcelltune/internal/service/shard"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stcd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8372", "listen address (:0 for ephemeral)")
	addrFile := flag.String("addrfile", "", "write bound address to this file once listening")
	cacheDir := flag.String("cachedir", "", "persist artifact cache in this directory")
	stateDir := flag.String("statedir", "", "durable job journal + shutdown manifest directory")
	workers := flag.Int("workers", 1, "concurrent pipeline executions")
	queueDepth := flag.Int("queue", 16, "job queue depth")
	maxRPS := flag.Float64("maxrps", 0, "global submission rate limit, jobs/sec (0 = unlimited)")
	burst := flag.Int("burst", 0, "rate-limiter burst (0 = ceil(maxrps))")
	tenantQuota := flag.Int("tenantquota", 0, "max concurrently active jobs per tenant (0 = unlimited)")
	breakerK := flag.Int("breakerk", 3, "trip a spec digest after K consecutive panic/quarantine failures (0 = off)")
	breakerCooldown := flag.Duration("breakercooldown", 30*time.Second, "tripped-digest cooldown before one probe")
	drainTimeout := flag.Duration("draintimeout", 60*time.Second, "graceful shutdown bound")
	chaosSpec := flag.String("chaos", "", "fault-injection spec (point=kind[:after][:dur], comma-separated)")
	chaosSeed := flag.Int64("chaosseed", 1, "seed for -chaos decisions")
	debugAddr := flag.String("debugaddr", "", "serve expvar/pprof/obs debug surface on this address")
	profileDir := flag.String("profiledir", "", "write cpu.pprof (lifetime) and heap.pprof (at shutdown) into this directory")
	logLevel := flag.String("log", "info", "log level: debug, info, warn, error")
	clusterMode := flag.Bool("cluster", false, "host a shard coordinator for distributed characterization")
	workerMode := flag.Bool("worker", false, "run as a cluster worker (requires -join)")
	join := flag.String("join", "", "coordinator base URL to register with (worker mode)")
	workerName := flag.String("name", "", "worker name label (default host-pid)")
	leaseTimeout := flag.Duration("leasetimeout", 10*time.Second, "shard lease TTL before a silent worker's task re-queues")
	shardSize := flag.Int("shardsize", 0, "Monte-Carlo instances per shard task (0 = default); scheduling only, never changes artifact bytes")
	peerList := flag.String("peers", "", "comma-separated peer stcd addresses for the peer cache tier")
	peerAddr := flag.String("peeraddr", "", "artifact address a worker advertises at registration")
	simCharLatency := flag.Duration("simcharlatency", 0, "simulated external-characterizer latency per generated Monte-Carlo sample row")
	flag.Parse()

	level, ok := obs.ParseLogLevel(*logLevel)
	if !ok {
		return fmt.Errorf("unknown -log level %q", *logLevel)
	}
	log := obs.InitLog(os.Stderr, level)

	if *workerMode {
		return runWorker(log, *join, *workerName, *peerAddr, *simCharLatency)
	}

	if *profileDir != "" {
		stop, err := startProfiles(*profileDir)
		if err != nil {
			return fmt.Errorf("profiledir: %w", err)
		}
		defer stop()
		log.Info("profiling enabled", "dir", *profileDir)
	}

	if *chaosSpec != "" {
		inj, err := chaos.Parse(*chaosSpec, *chaosSeed)
		if err != nil {
			return err
		}
		inj.ExitOnCrash = true // a firing crash point kills the real process, like SIGKILL between two syscalls
		chaos.Activate(inj)
		log.Warn("chaos armed", "spec", *chaosSpec, "seed", *chaosSeed)
	}

	store, err := cache.New(*cacheDir)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if *cacheDir != "" {
		log.Info("cache rehydrated", "dir", *cacheDir, "entries", store.Len(),
			"corrupt_dropped", obs.Default().Counter("cache.corrupt_dropped").Value())
	}

	var jnl *journal.Journal
	var replayed []journal.Record
	if *stateDir != "" {
		jnl, replayed, err = journal.Open(*stateDir)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		defer jnl.Close()
		log.Info("journal replayed", "path", jnl.Path(), "records", len(replayed),
			"pending", len(journal.Pending(replayed)),
			"torn_tails", obs.Default().Counter("journal.torn_tail_truncated").Value())
	}

	// Cluster tier: a coordinator distributes characterize stages to
	// registered workers; the peer client fills local cache misses from
	// other nodes' verified artifacts. Neither is constructed for a
	// plain single-node daemon, whose pipeline stays the byte-identical
	// default.
	var coord *shard.Coordinator
	var peerClient *service.PeerClient
	var pipelineRun func(context.Context, service.Spec) (map[string][]byte, error)
	if *peerList != "" || *clusterMode {
		peerClient = service.NewPeerClient(strings.Split(*peerList, ","))
		store.SetPeerFetch(peerClient.Fetch)
		if ps := peerClient.Peers(); len(ps) > 0 {
			log.Info("peer cache tier enabled", "peers", ps)
		}
	}
	if *clusterMode {
		coord = shard.New(shard.Options{
			LeaseTTL: *leaseTimeout,
			OnRegister: func(name, addr string) {
				log.Info("worker registered", "worker", name, "peer_addr", addr)
				if addr != "" {
					peerClient.Add(addr)
				}
			},
		})
	}
	if coord != nil || *simCharLatency > 0 {
		p := &service.Pipeline{Cluster: coord, ShardSize: *shardSize, SimCharLatency: *simCharLatency}
		pipelineRun = p.Run
	}

	mgr := service.NewManager(store, service.ManagerOptions{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		Run:             pipelineRun,
		Trace:           true,
		Journal:         jnl,
		Recovered:       replayed,
		MaxRPS:          *maxRPS,
		Burst:           *burst,
		TenantQuota:     *tenantQuota,
		BreakerK:        *breakerK,
		BreakerCooldown: *breakerCooldown,
		Cluster:         coord,
		Peers:           peerClient,
	})
	if n := mgr.Recovered(); n > 0 {
		log.Info("recovered jobs re-enqueued", "jobs", n)
	}

	if *debugAddr != "" {
		_, bound, err := debughttp.Serve(*debugAddr, debughttp.DebugState{
			Metrics: obs.Default(),
			Extra:   map[string]any{"binary": "stcd", "schema": service.SchemaSpec},
		})
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		log.Info("debug surface up", "addr", bound)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return fmt.Errorf("addrfile: %w", err)
		}
	}
	srv := &http.Server{Handler: service.Handler(mgr)}
	log.Info("stcd listening", "addr", ln.Addr().String(), "workers", *workers, "queue", *queueDepth,
		"maxrps", *maxRPS, "tenantquota", *tenantQuota, "breakerk", *breakerK,
		"cluster", *clusterMode, "shardsize", *shardSize)

	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	log.Info("draining", "timeout", drainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the job queue first so in-flight jobs finish, then close the
	// HTTP server; during the drain new submissions are answered 503.
	drainErr := mgr.Drain(drainCtx)
	if err := srv.Shutdown(drainCtx); err != nil {
		srv.Close()
	}
	if drainErr != nil {
		log.Warn("drain incomplete, jobs cancelled", "err", drainErr)
	} else {
		log.Info("drained cleanly")
	}
	if *stateDir != "" {
		writeManifest(*stateDir, mgr, drainErr == nil)
	}
	return nil
}

// runWorker is the -worker entry point: no HTTP surface, no job queue —
// just the cluster poll loop executing characterization shards until a
// signal arrives. Dying mid-shard (SIGKILL) is safe by protocol: the
// lease expires and another worker steals the shard.
func runWorker(log *slog.Logger, join, name, peerAddr string, simCharLatency time.Duration) error {
	if join == "" {
		return errors.New("-worker requires -join=<coordinator URL>")
	}
	if !strings.Contains(join, "://") {
		join = "http://" + join
	}
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &shard.Worker{
		Base:     strings.TrimRight(join, "/"),
		Name:     name,
		PeerAddr: peerAddr,
		Exec:     shard.Executor{SimCharLatency: simCharLatency},
	}
	log.Info("stcd worker starting", "coordinator", w.Base, "name", name,
		"simcharlatency", simCharLatency.String())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	log.Info("stcd worker stopped")
	return nil
}

// startProfiles begins a lifetime CPU profile in dir; the returned stop
// ends it and snapshots the heap profile — called on the graceful
// shutdown path, so a drained daemon leaves both files behind for
// `go tool pprof`.
func startProfiles(dir string) (stop func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpuF, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		cpuF.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		cpuF.Close()
		heapF, err := os.Create(filepath.Join(dir, "heap.pprof"))
		if err != nil {
			obs.Log().Warn("heap profile create failed", "err", err)
			return
		}
		runtime.GC() // up-to-date allocation stats in the snapshot
		if err := pprof.Lookup("heap").WriteTo(heapF, 0); err != nil {
			obs.Log().Warn("heap profile write failed", "err", err)
		}
		heapF.Close()
	}, nil
}

// writeManifest records the daemon lifetime's recovery/admission totals
// beside the journal. Best-effort: failing to write provenance must not
// turn a clean drain into a dirty exit.
func writeManifest(stateDir string, mgr *service.Manager, drainClean bool) {
	reg := obs.Default()
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	m := obs.NewManifest()
	m.Args = os.Args
	m.Metrics = reg.Snapshot()
	m.Service = &obs.ServiceOutcome{
		JobsSubmitted:          counter("service.jobs_submitted"),
		JobsRecovered:          int64(mgr.Recovered()),
		JournalRecordsReplayed: counter("journal.records_replayed"),
		TornTailsTruncated:     counter("journal.torn_tail_truncated"),
		RateLimited:            counter("service.admit_rate_limited"),
		QuotaRejected:          counter("service.admit_quota_rejected"),
		BreakerTrips:           counter("service.breaker_trips"),
		CorruptCacheDropped:    counter("cache.corrupt_dropped"),
		DrainClean:             drainClean,
	}
	path := filepath.Join(stateDir, "stcd.manifest.json")
	if err := m.Write(path); err != nil {
		obs.Log().Warn("manifest write failed", "path", path, "err", err)
	} else {
		obs.Log().Info("manifest written", "path", path)
	}
}
