// Package journal is the tuning daemon's write-ahead job journal: the
// durable record that makes a crash lose no accepted work. Every job
// state transition (accepted -> running -> done/failed/cancelled) is
// appended to one file under the daemon's -statedir as a
// length-prefixed, CRC-checksummed JSON record; accepts and terminal
// states are fsynced before the caller proceeds, so "the client got
// 202" implies "the journal knows".
//
// Durability contract, precisely:
//
//   - A job whose Submit returned success (accepted record synced) is
//     either terminal in the journal or re-enqueued on restart. Never
//     silently lost.
//   - A torn tail — the half-written record a crash mid-append leaves —
//     is detected by framing/CRC and truncated cleanly on open; every
//     record before it survives intact. Replay never guesses: the
//     first invalid byte ends the journal.
//   - Replayed jobs are idempotent through the content-addressed
//     artifact cache: a recovered spec whose artifacts persisted
//     replays the exact cold bytes; one that didn't recomputes them —
//     byte-identical either way, because artifacts are a pure function
//     of the spec digest.
//
// On-disk framing per record:
//
//	[4-byte big-endian payload length][4-byte big-endian CRC-32 (IEEE) of payload][payload JSON]
//
// Open replays the existing file, truncates any torn tail, then
// compacts: terminal jobs' records are dropped and the pending jobs'
// accepted records are rewritten to a temp file that is fsynced and
// renamed into place, so the journal's size is bounded by the live job
// set across restarts, not by history.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"stdcelltune/internal/obs"
	"stdcelltune/internal/service/chaos"
)

// Schema is the versioned record schema identifier; Replay and
// Validate enforce it.
const Schema = "stdcelltune-journal/1"

// FileName is the journal file under the daemon's state directory.
const FileName = "jobs.wal"

// MaxRecord bounds one record's payload; a framed length beyond it is
// corruption, not a record.
const MaxRecord = 1 << 20

// headerLen is the per-record framing overhead (length + CRC).
const headerLen = 8

// State is a journaled job state.
type State string

const (
	StateAccepted  State = "accepted"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Valid reports whether s is one of the five journaled states.
func (s State) Valid() bool {
	switch s {
	case StateAccepted, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Terminal reports whether s ends a job.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Record is one journaled state transition. Spec stays raw JSON here so
// the journal does not depend on the service package's request type;
// the manager round-trips it losslessly.
type Record struct {
	Schema  string          `json:"schema"`
	Seq     uint64          `json:"seq"`
	Job     string          `json:"job"`
	State   State           `json:"state"`
	Digest  string          `json:"digest,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	Tenant  string          `json:"tenant,omitempty"`
	Time    string          `json:"time,omitempty"` // RFC3339Nano, writer's clock
	Outcome string          `json:"outcome,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// Journal metrics, in the process-default registry beside the service
// and cache counters.
var (
	recordsAppended   = obs.Default().Counter("journal.records_appended")
	recordsReplayed   = obs.Default().Counter("journal.records_replayed")
	tornTailTruncated = obs.Default().Counter("journal.torn_tail_truncated")
)

// CorruptError reports where and why a replay stopped early. It is a
// diagnosis, not a failure: Open truncates at Offset and continues.
type CorruptError struct {
	Offset int64  // byte offset of the first invalid record
	Reason string // human-readable cause
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: invalid record at byte %d: %s", e.Offset, e.Reason)
}

// Replay decodes records from raw journal bytes. It returns the records
// up to the first invalid byte, the length of that valid prefix, and a
// *CorruptError describing the torn or corrupt tail (nil when the whole
// buffer parses). Replay never panics on any input — the fuzz target
// FuzzReplay pins that — and Replay(data[:valid]) always returns the
// same records with a nil error.
func Replay(data []byte) (recs []Record, valid int64, err error) {
	off := int64(0)
	for int64(len(data))-off > 0 {
		rest := data[off:]
		if len(rest) < headerLen {
			return recs, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("torn header: %d trailing bytes", len(rest))}
		}
		n := binary.BigEndian.Uint32(rest)
		if n == 0 || n > MaxRecord {
			return recs, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("implausible record length %d", n)}
		}
		if len(rest) < headerLen+int(n) {
			return recs, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("torn record: %d of %d payload bytes", len(rest)-headerLen, n)}
		}
		payload := rest[headerLen : headerLen+int(n)]
		if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(rest[4:]); got != want {
			return recs, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("checksum mismatch (%08x != %08x)", got, want)}
		}
		var rec Record
		if uerr := json.Unmarshal(payload, &rec); uerr != nil {
			return recs, off, &CorruptError{Offset: off, Reason: "payload not a record: " + uerr.Error()}
		}
		if rec.Schema != Schema {
			return recs, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("schema %q, want %q", rec.Schema, Schema)}
		}
		if !rec.State.Valid() || rec.Job == "" {
			return recs, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("malformed record (job %q, state %q)", rec.Job, rec.State)}
		}
		recs = append(recs, rec)
		off += headerLen + int64(n)
	}
	return recs, off, nil
}

// Pending reduces replayed records to the jobs that were accepted or
// running when the journal ended — the re-enqueue set. Each returned
// record is the job's accepted record (the one carrying the spec), in
// first-accepted order.
func Pending(recs []Record) []Record {
	accepted := make(map[string]Record, len(recs))
	terminal := make(map[string]bool, len(recs))
	var order []string
	for _, r := range recs {
		switch {
		case r.State == StateAccepted:
			if _, ok := accepted[r.Job]; !ok {
				order = append(order, r.Job)
			}
			accepted[r.Job] = r
			delete(terminal, r.Job) // a re-accept (compaction) reopens the job
		case r.State.Terminal():
			terminal[r.Job] = true
		}
	}
	out := make([]Record, 0, len(order))
	for _, id := range order {
		if !terminal[id] {
			out = append(out, accepted[id])
		}
	}
	return out
}

// Validate checks the invariants of a replayed record sequence: every
// record carries the schema, a strictly increasing seq, a known state
// and a job id; a job's first record accepts it with a spec, a re-accept
// carries its spec too, and no record follows a job's terminal state.
// It returns the first violation, or nil.
func Validate(recs []Record) error {
	var lastSeq uint64
	seen := make(map[string]State, len(recs))
	for i, r := range recs {
		prev, ok := seen[r.Job]
		switch {
		case r.Schema != Schema:
			return fmt.Errorf("journal: record %d schema %q, want %q", i, r.Schema, Schema)
		case r.Seq <= lastSeq:
			return fmt.Errorf("journal: record %d seq %d not above %d", i, r.Seq, lastSeq)
		case !r.State.Valid():
			return fmt.Errorf("journal: record %d (%s) has unknown state %q", i, r.Job, r.State)
		case r.Job == "":
			return fmt.Errorf("journal: record %d has no job id", i)
		case !ok && r.State != StateAccepted:
			return fmt.Errorf("journal: job %s first appears as %q, want accepted", r.Job, r.State)
		case ok && prev.Terminal():
			return fmt.Errorf("journal: job %s moves %q -> %q after a terminal state", r.Job, prev, r.State)
		case r.State == StateAccepted && len(r.Spec) == 0:
			return fmt.Errorf("journal: job %s accepted without a spec", r.Job)
		}
		lastSeq = r.Seq
		seen[r.Job] = r.State
	}
	return nil
}

// Journal is an open, appendable job journal. Safe for concurrent use.
type Journal struct {
	path string

	mu  sync.Mutex
	f   *os.File
	seq uint64
}

// Open replays dir/jobs.wal (creating dir as needed), truncates any
// torn tail, compacts terminal history away, and returns the journal
// opened for append plus every replayed record. A torn tail is counted
// and logged, never fatal; only I/O errors are.
func Open(dir string) (*Journal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	recs, valid, rerr := Replay(data)
	if rerr != nil {
		tornTailTruncated.Add(1)
		obs.Log().Warn("journal: truncating invalid tail", "path", path, "valid_bytes", valid, "dropped_bytes", int64(len(data))-valid, "err", rerr)
	}
	recordsReplayed.Add(int64(len(recs)))

	j := &Journal{path: path}
	for _, r := range recs {
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}

	// Compact: rewrite only the pending jobs' accepted records, fsync,
	// rename into place. This both truncates any torn tail and bounds
	// the file by the live job set. The rename is the commit point; a
	// crash anywhere before it leaves the old file intact.
	tmp := path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range Pending(recs) {
		j.seq++
		r.Seq = j.seq
		frame, err := encode(r)
		if err != nil {
			tf.Close()
			return nil, nil, err
		}
		if _, err := tf.Write(frame); err != nil {
			tf.Close()
			return nil, nil, err
		}
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return nil, nil, err
	}
	if err := tf.Close(); err != nil {
		return nil, nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, nil, err
	}
	syncDir(dir)

	j.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return j, recs, nil
}

// encode frames one record: length, CRC, payload.
func encode(r Record) ([]byte, error) {
	r.Schema = Schema
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	if len(payload) > MaxRecord {
		return nil, fmt.Errorf("journal: record too large (%d bytes)", len(payload))
	}
	frame := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[headerLen:], payload)
	return frame, nil
}

// Append journals one state transition. syncNow forces the record to
// stable storage before returning — the accept and terminal paths use
// it; the running transition rides the page cache (losing it merely
// re-runs an idempotent job).
//
// The chaos points "journal.<state>.pre-write", "journal.<state>.write"
// (torn) and "journal.<state>.pre-sync" instrument the three moments a
// crash distinguishes.
func (j *Journal) Append(rec Record, syncNow bool) error {
	if d := chaos.At("journal." + string(rec.State) + ".pre-write"); d.Crash {
		return chaos.ErrCrash
	} else if d.Err != nil {
		return d.Err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	rec.Seq = j.seq
	frame, err := encode(rec)
	if err != nil {
		return err
	}
	if d := chaos.At("journal." + string(rec.State) + ".write"); d.Torn {
		// Torn write: a prefix lands (never the whole frame), then the
		// process dies. Replay on the next open must truncate it.
		cut := int(d.Frac * float64(len(frame)))
		if cut >= len(frame) {
			cut = len(frame) - 1
		}
		j.f.Write(frame[:cut])
		j.f.Sync() // make the torn prefix as durable as a real crash might
		return chaos.Crashed()
	} else if d.Crash {
		return chaos.ErrCrash // dead process: not one byte of this frame lands
	} else if d.Err != nil {
		return d.Err
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if syncNow {
		if d := chaos.At("journal." + string(rec.State) + ".pre-sync"); d.Crash {
			return chaos.ErrCrash
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	recordsAppended.Add(1)
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// syncDir fsyncs a directory so a rename within it is durable.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
