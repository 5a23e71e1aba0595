package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"stdcelltune/internal/service"
)

// daemon is one stcd process with fresh on-disk cache and journal
// directories, plus the load generator's HTTP client to it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	logf   *os.File
	closed bool
}

// startDaemon boots stcd at the stcd default of one pipeline worker,
// persisting its cache and journaling its jobs on disk (-cachedir,
// -statedir), and returns once /healthz answers. conns bounds the
// client's connections.
func (e *env) startDaemon(ctx context.Context, conns int) (*daemon, error) {
	dir, err := os.MkdirTemp(e.scratch, "stcd-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "stcd.log"))
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := e.command(ctx, "stcd", "-addr", "127.0.0.1:0", "-addrfile", addrFile, "-log", "warn",
		"-cachedir", filepath.Join(dir, "cache"), "-statedir", filepath.Join(dir, "state"))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start stcd: %w", err)
	}
	d := &daemon{cmd: cmd, logf: logf, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}}
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(data)) > 0 {
			d.base = "http://" + string(bytes.TrimSpace(data))
			if resp, err := d.client.Get(d.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		if err := ctx.Err(); err != nil {
			d.Close()
			return nil, fmt.Errorf("stcd did not become healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops the daemon (graceful drain first) and waits for it; a
// second call does nothing.
func (d *daemon) Close() {
	if d.closed {
		return
	}
	d.closed = true
	d.client.CloseIdleConnections()
	_ = stop(d.cmd, 10*time.Second) // the exit status of a drained daemon carries no verdict
	d.logf.Close()
}

func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// do sends one request and returns status, headers and the full body.
func (d *daemon) do(ctx context.Context, method, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	code, _, data, err := d.do(ctx, http.MethodGet, path, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", path, code, bytes.TrimSpace(data))
	}
	return data, err
}

// jobRun is one job as the client saw it.
type jobRun struct {
	View   service.JobView
	Posted time.Time // client sent POST
	Done   time.Time // client saw the terminal event
}

func (j jobRun) latencyMs() float64 { return ms(j.Done.Sub(j.Posted)) }

// runJob submits a spec and waits for its terminal state. Completion is
// read from the job's SSE stream, whose final "done" event the daemon
// pushes the moment the job turns terminal — exact, without a poll
// loop competing with the pipeline for the CPUs.
func (d *daemon) runJob(ctx context.Context, spec service.Spec) (jobRun, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobRun{}, err
	}
	run := jobRun{Posted: time.Now()}
	code, _, data, err := d.do(ctx, http.MethodPost, "/v2/jobs", body)
	if err != nil {
		return run, err
	}
	if code != http.StatusAccepted { // 429 and 503 refusals included: they count as failed
		return run, fmt.Errorf("POST /v2/jobs: status %d: %s", code, bytes.TrimSpace(data))
	}
	var accepted service.JobView
	if err := json.Unmarshal(data, &accepted); err != nil {
		return run, fmt.Errorf("decode accepted job: %w", err)
	}
	view, err := d.awaitDone(ctx, accepted.ID)
	run.Done = time.Now()
	run.View = view
	if err != nil {
		return run, err
	}
	if view.Status != service.StatusDone {
		return run, fmt.Errorf("job %s ended %s: %s", view.ID, view.Status, view.Error)
	}
	return run, nil
}

// awaitDone follows a job's event stream to its terminal "done" event.
func (d *daemon) awaitDone(ctx context.Context, id string) (service.JobView, error) {
	var view service.JobView
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v2/jobs/"+id+"/events", nil)
	if err != nil {
		return view, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return view, fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			if err := json.Unmarshal([]byte(v), &view); err != nil {
				return view, fmt.Errorf("decode done event of %s: %w", id, err)
			}
			return view, nil
		}
	}
	if err := sc.Err(); err != nil {
		return view, fmt.Errorf("events of %s: %w", id, err)
	}
	return view, fmt.Errorf("events of %s ended without a done event", id)
}

// queryRun is one query's answer.
type queryRun struct {
	Body  []byte
	Cache string // X-Query-Cache verdict
}

// query posts a query document against a library.
func (d *daemon) query(ctx context.Context, dig string, doc []byte) (queryRun, error) {
	code, hdr, data, err := d.do(ctx, http.MethodPost, "/v2/libraries/"+dig+"/query", doc)
	run := queryRun{Body: data}
	if err != nil {
		return run, err
	}
	if code != http.StatusOK { // 429 and 503 refusals included: they count as failed
		return run, fmt.Errorf("query: status %d: %s", code, bytes.TrimSpace(data))
	}
	run.Cache = hdr.Get("X-Query-Cache")
	return run, nil
}

// metrics scrapes /metrics into series -> value ("name" or
// "name{labels}" exactly as exposed).
func (d *daemon) metrics(ctx context.Context) (map[string]float64, error) {
	data, err := d.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(data)
}

func parseProm(data []byte) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// artifacts fetches a library's full artifact set.
func (d *daemon) artifacts(ctx context.Context, view service.JobView) (map[string][]byte, error) {
	blobs := map[string][]byte{}
	for _, a := range view.Artifacts {
		data, err := d.get(ctx, "/v2/libraries/"+view.Digest+"/artifacts/"+a.Name)
		if err != nil {
			return nil, err
		}
		blobs[a.Name] = data
	}
	return blobs, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
