package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// ManifestSchema identifies the run-manifest JSON layout.
const ManifestSchema = "stdcelltune-manifest/1"

// Manifest makes one experiment run self-describing: everything needed
// to attribute or reproduce the numbers sitting next to it — sampling
// configuration, fault injection, toolchain, wall time, what failed —
// in one JSON file written beside the results.
type Manifest struct {
	Schema  string `json:"schema"`
	Created string `json:"created"` // RFC 3339, local time of the writer

	// Toolchain provenance.
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	ModulePath    string `json:"module_path,omitempty"`
	ModuleVersion string `json:"module_version,omitempty"`
	VCSRevision   string `json:"vcs_revision,omitempty"`
	VCSModified   bool   `json:"vcs_modified,omitempty"`

	// Invocation.
	Args []string `json:"args"`

	// SpecDigest is the canonical content hash of the flow configuration
	// (exp.FlowConfig.Digest / the service request-spec digest): the same
	// key the tuning daemon's artifact cache uses, so results written by
	// a batch run can be located in — or compared against — a warm cache.
	SpecDigest string `json:"spec_digest,omitempty"`

	// Sampling / flow configuration.
	Samples   int     `json:"samples"`
	Seed      int64   `json:"seed"`
	Corner    string  `json:"corner"`
	Small     bool    `json:"small"`
	FaultRate float64 `json:"fault_rate"`
	FaultSeed int64   `json:"fault_seed,omitempty"`

	// Outcome.
	WallSeconds float64  `json:"wall_seconds"`
	Experiments []string `json:"experiments,omitempty"`
	Failed      []string `json:"failed,omitempty"`
	Quarantined int      `json:"quarantined"`

	// Companion artifacts of the same run.
	TraceFile string `json:"trace_file,omitempty"`
	BenchFile string `json:"bench_file,omitempty"`
	OutDir    string `json:"out_dir,omitempty"`

	// Metrics is the registry snapshot at the end of the run (counters,
	// gauges, histogram summaries) — the same shape Registry.Snapshot
	// serves over the debug endpoint.
	Metrics map[string]any `json:"metrics,omitempty"`

	// SynthOutcomes records, per cached synthesis unit of the flow, what
	// the optimizer did — iteration count and how much timing analysis
	// the incremental engine avoided.
	SynthOutcomes []SynthOutcome `json:"synth_outcomes,omitempty"`

	// Service summarizes a tuning-daemon run: cmd/stcd writes one of
	// these beside its journal on clean shutdown, so a restart (or an
	// operator) can see what the previous life recovered, refused, and
	// tripped.
	Service *ServiceOutcome `json:"service,omitempty"`
}

// ServiceOutcome is the daemon half of the manifest: recovery,
// admission and breaker totals for one stcd process lifetime.
type ServiceOutcome struct {
	JobsSubmitted          int64 `json:"jobs_submitted"`
	JobsRecovered          int64 `json:"jobs_recovered"`
	JournalRecordsReplayed int64 `json:"journal_records_replayed"`
	TornTailsTruncated     int64 `json:"torn_tails_truncated"`
	RateLimited            int64 `json:"rate_limited"`
	QuotaRejected          int64 `json:"quota_rejected"`
	BreakerTrips           int64 `json:"breaker_trips"`
	CorruptCacheDropped    int64 `json:"corrupt_cache_dropped"`
	DrainClean             bool  `json:"drain_clean"`
}

// SynthOutcome is one flow synthesis unit in the manifest.
type SynthOutcome struct {
	Key                string  `json:"key"` // flow cache key (kind/params/clock)
	Clock              float64 `json:"clock"`
	Met                bool    `json:"met"`
	Area               float64 `json:"area"`
	Iterations         int     `json:"iterations"`
	FullAnalyses       int     `json:"full_analyses"`
	IncrementalUpdates int     `json:"incremental_updates"`
}

// NewManifest returns a manifest stamped with the schema, the current
// time, and the toolchain/build provenance read from the running
// binary.
func NewManifest() *Manifest {
	m := &Manifest{
		Schema:    ManifestSchema,
		Created:   time.Now().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.ModulePath = bi.Main.Path
		m.ModuleVersion = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value == "true"
			}
		}
	}
	return m
}

// Write serializes the manifest as indented JSON.
func (m *Manifest) Write(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadManifest loads and validates a manifest file: it must parse and
// carry the current schema tag. cmd/obscheck -manifest and cmd/stcd's
// end-to-end test read manifests through it.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("obs: %s: schema %q, want %q", path, m.Schema, ManifestSchema)
	}
	if m.GoVersion == "" {
		return nil, fmt.Errorf("obs: %s: missing go_version", path)
	}
	return &m, nil
}
