package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"stdcelltune/internal/service/chaos"
)

func mustAppend(t *testing.T, j *Journal, rec Record, sync bool) {
	t.Helper()
	if err := j.Append(rec, sync); err != nil {
		t.Fatalf("append %s/%s: %v", rec.Job, rec.State, err)
	}
}

func openT(t *testing.T, dir string) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(dir)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	t.Cleanup(func() { j.Close() })
	return j, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs := openT(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	spec := json.RawMessage(`{"design":"mcu-small","instances":3}`)
	mustAppend(t, j, Record{Job: "job-1", State: StateAccepted, Digest: "sha256:aa", Spec: spec, Tenant: "t1"}, true)
	mustAppend(t, j, Record{Job: "job-1", State: StateRunning, Digest: "sha256:aa"}, false)
	mustAppend(t, j, Record{Job: "job-1", State: StateDone, Digest: "sha256:aa", Outcome: "miss"}, true)
	mustAppend(t, j, Record{Job: "job-2", State: StateAccepted, Digest: "sha256:bb", Spec: spec}, true)
	j.Close()

	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	recs2, valid, rerr := Replay(data)
	if rerr != nil {
		t.Fatalf("replay: %v", rerr)
	}
	if valid != int64(len(data)) {
		t.Fatalf("valid %d != file size %d", valid, len(data))
	}
	if len(recs2) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs2))
	}
	for i, r := range recs2 {
		if r.Schema != Schema {
			t.Fatalf("record %d schema %q", i, r.Schema)
		}
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d seq %d, want %d", i, r.Seq, i+1)
		}
	}
	if !bytes.Equal(recs2[0].Spec, spec) {
		t.Fatalf("spec did not round-trip: %s", recs2[0].Spec)
	}

	pending := Pending(recs2)
	if len(pending) != 1 || pending[0].Job != "job-2" {
		t.Fatalf("pending %+v, want [job-2]", pending)
	}
}

// TestValidateRejects: each record-sequence invariant Validate names
// fails on a sequence that breaks only it; the well-formed history
// passes.
func TestValidateRejects(t *testing.T) {
	spec := json.RawMessage(`{"design":"mcu-small"}`)
	good := func() []Record {
		return []Record{
			{Schema: Schema, Seq: 1, Job: "a", State: StateAccepted, Spec: spec},
			{Schema: Schema, Seq: 2, Job: "a", State: StateRunning},
			{Schema: Schema, Seq: 3, Job: "b", State: StateAccepted, Spec: spec},
			{Schema: Schema, Seq: 4, Job: "a", State: StateDone},
			{Schema: Schema, Seq: 5, Job: "b", State: StateAccepted, Spec: spec}, // compaction re-accept
		}
	}
	if err := Validate(good()); err != nil {
		t.Fatalf("well-formed history rejected: %v", err)
	}
	edit := func(i int, f func(*Record)) []Record {
		recs := good()
		f(&recs[i])
		return recs
	}
	cases := []struct {
		label string
		recs  []Record
	}{
		{"schema", edit(2, func(r *Record) { r.Schema = "stdcelltune-journal/0" })},
		{"seq repeats", edit(1, func(r *Record) { r.Seq = 1 })},
		{"unknown state", edit(1, func(r *Record) { r.State = "paused" })},
		{"no job id", edit(2, func(r *Record) { r.Job = "" })},
		{"not accepted first", edit(2, func(r *Record) { r.State = StateRunning })},
		{"move after terminal", append(good(), Record{Schema: Schema, Seq: 6, Job: "a", State: StateRunning})},
		{"accept without spec", edit(4, func(r *Record) { r.Spec = nil })},
	}
	for _, tc := range cases {
		if err := Validate(tc.recs); err == nil {
			t.Errorf("%s: Validate accepted the sequence", tc.label)
		}
	}
}

func TestOpenCompactsTerminalHistory(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	spec := json.RawMessage(`{"seed":7}`)
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		mustAppend(t, j, Record{Job: id, State: StateAccepted, Digest: "sha256:" + id, Spec: spec}, true)
	}
	mustAppend(t, j, Record{Job: "job-1", State: StateDone, Outcome: "miss"}, true)
	mustAppend(t, j, Record{Job: "job-3", State: StateCancelled}, true)
	j.Close()

	// Reopen: only job-2 is pending; the compacted file must contain
	// exactly its accepted record, with seq continuing past the history.
	j2, recs := openT(t, dir)
	pending := Pending(recs)
	if len(pending) != 1 || pending[0].Job != "job-2" {
		t.Fatalf("pending after reopen %+v, want [job-2]", pending)
	}
	j2.Close()
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	compacted, _, rerr := Replay(data)
	if rerr != nil {
		t.Fatalf("compacted file: %v", rerr)
	}
	if len(compacted) != 1 || compacted[0].Job != "job-2" || compacted[0].State != StateAccepted {
		t.Fatalf("compacted contents %+v, want job-2 accepted", compacted)
	}
	if compacted[0].Seq <= 5 {
		t.Fatalf("compaction rewound seq to %d", compacted[0].Seq)
	}
	if !bytes.Equal(compacted[0].Spec, spec) {
		t.Fatalf("compaction lost the spec: %s", compacted[0].Spec)
	}
}

// TestTornTailTruncatedCleanly cuts the file at every byte offset of
// the final record and proves: records before the cut survive, the torn
// tail is reported, the reopened journal accepts appends, and the
// result replays cleanly.
func TestTornTailTruncatedCleanly(t *testing.T) {
	build := func(dir string) []byte {
		j, _ := openT(t, dir)
		spec := json.RawMessage(`{"seed":3}`)
		mustAppend(t, j, Record{Job: "job-1", State: StateAccepted, Digest: "sha256:aa", Spec: spec}, true)
		mustAppend(t, j, Record{Job: "job-2", State: StateAccepted, Digest: "sha256:bb", Spec: spec}, true)
		j.Close()
		data, err := os.ReadFile(filepath.Join(dir, FileName))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ref := build(t.TempDir())
	// The first record ends at headerLen+payloadLen; cut anywhere
	// strictly inside record 2.
	n1 := binary.BigEndian.Uint32(ref)
	boundary := int64(headerLen + int(n1))
	for cut := boundary + 1; cut < int64(len(ref)); cut += 7 {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), ref[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, replayed := openT(t, dir)
		if len(replayed) != 1 || replayed[0].Job != "job-1" {
			t.Fatalf("cut %d: replayed %+v, want just job-1", cut, replayed)
		}
		// The journal still works after truncation.
		mustAppend(t, j, Record{Job: "job-9", State: StateAccepted, Digest: "sha256:cc", Spec: json.RawMessage(`{}`)}, true)
		j.Close()
		data, err := os.ReadFile(filepath.Join(dir, FileName))
		if err != nil {
			t.Fatal(err)
		}
		after, valid, rerr := Replay(data)
		if rerr != nil || valid != int64(len(data)) {
			t.Fatalf("cut %d: post-truncation file not clean: %v", cut, rerr)
		}
		if len(after) != 2 || after[1].Job != "job-9" {
			t.Fatalf("cut %d: post-truncation records %+v", cut, after)
		}
	}
}

func TestReplayRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	mustAppend(t, j, Record{Job: "job-1", State: StateAccepted, Spec: json.RawMessage(`{}`)}, true)
	j.Close()
	data, _ := os.ReadFile(filepath.Join(dir, FileName))

	// Flip one payload byte: CRC must catch it.
	bad := append([]byte(nil), data...)
	bad[headerLen+2] ^= 0x40
	recs, valid, err := Replay(bad)
	var ce *CorruptError
	if len(recs) != 0 || valid != 0 || !errors.As(err, &ce) {
		t.Fatalf("bit flip not caught: recs=%d valid=%d err=%v", len(recs), valid, err)
	}

	// Implausible length field.
	bad = append([]byte(nil), data...)
	binary.BigEndian.PutUint32(bad, MaxRecord+1)
	if _, _, err := Replay(bad); err == nil {
		t.Fatal("implausible length accepted")
	}
}

func TestAppendTornChaos(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	mustAppend(t, j, Record{Job: "job-1", State: StateAccepted, Spec: json.RawMessage(`{}`)}, true)

	inj := chaos.New(42)
	inj.Arm("journal.done.write", chaos.Torn, 0)
	defer chaos.Activate(inj)()
	err := j.Append(Record{Job: "job-1", State: StateDone, Outcome: "miss"}, true)
	if !errors.Is(err, chaos.ErrCrash) {
		t.Fatalf("torn append returned %v, want ErrCrash", err)
	}
	if !inj.Dead() {
		t.Fatal("injector not dead after torn write")
	}
	// Dead injector: every later append fails before touching the file.
	if err := j.Append(Record{Job: "job-2", State: StateAccepted}, true); !errors.Is(err, chaos.ErrCrash) {
		t.Fatalf("post-crash append returned %v", err)
	}
	j.Close()

	// Recovery truncates the torn tail: job-1 is still pending (its
	// terminal record never committed).
	j2, recs := openT(t, dir)
	defer j2.Close()
	pending := Pending(recs)
	if len(pending) != 1 || pending[0].Job != "job-1" {
		t.Fatalf("pending after torn terminal %+v, want [job-1]", pending)
	}
}

// FuzzReplay pins the recovery invariants on arbitrary bytes: Replay
// never panics, the valid prefix is well-formed, and replaying the
// valid prefix is exact and error-free (truncation is idempotent).
func FuzzReplay(f *testing.F) {
	// Seeds: a clean journal, truncations, bit flips, garbage.
	var clean []byte
	{
		dir := f.TempDir()
		j, _, err := Open(dir)
		if err != nil {
			f.Fatal(err)
		}
		j.Append(Record{Job: "job-1", State: StateAccepted, Digest: "sha256:aa", Spec: json.RawMessage(`{"seed":1}`), Tenant: "t"}, true)
		j.Append(Record{Job: "job-1", State: StateRunning}, false)
		j.Append(Record{Job: "job-1", State: StateDone, Outcome: "miss"}, true)
		j.Close()
		clean, err = os.ReadFile(filepath.Join(dir, FileName))
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-3])
	f.Add(clean[:headerLen+1])
	f.Add(clean[:3])
	flip := append([]byte(nil), clean...)
	flip[len(flip)/2] ^= 0x10
	f.Add(flip)
	f.Add([]byte{})
	f.Add([]byte("not a journal at all, just text"))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, '{'})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := Replay(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d outside [0,%d]", valid, len(data))
		}
		if err == nil && valid != int64(len(data)) {
			t.Fatalf("clean replay stopped early: %d of %d", valid, len(data))
		}
		for _, r := range recs {
			if r.Schema != Schema || !r.State.Valid() || r.Job == "" {
				t.Fatalf("invalid record escaped replay: %+v", r)
			}
		}
		// Truncation idempotence: the valid prefix replays identically,
		// with no error.
		recs2, valid2, err2 := Replay(data[:valid])
		if err2 != nil || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("replay of valid prefix diverged: err=%v valid=%d/%d recs=%d/%d",
				err2, valid2, valid, len(recs2), len(recs))
		}
		// Pending never invents jobs.
		for _, p := range Pending(recs) {
			if p.State != StateAccepted {
				t.Fatalf("pending returned non-accepted record %+v", p)
			}
		}
	})
}
