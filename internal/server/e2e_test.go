package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bistpath"
)

// newTestServer builds a Server and an httptest front end. The hook
// must be set on the returned Server before the first request.
func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 50 * time.Millisecond
	}
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t testing.TB, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, data
}

func getJSON(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, data
}

// submitBenchmark posts a benchmark job and returns its ID.
func submitBenchmark(t testing.TB, ts *httptest.Server, name string) string {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"benchmark":%q}`, name))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d, body %s", name, resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	if sub.ID == "" || sub.Status != StatusQueued && sub.Status != StatusRunning {
		t.Fatalf("submit view = %+v", sub.jobJSON)
	}
	for _, link := range []string{"self", "events", "result"} {
		if sub.Links[link] == "" {
			t.Fatalf("submit response missing %q link: %+v", link, sub.Links)
		}
	}
	return sub.ID
}

// waitJob polls until the job is terminal and returns its final view.
func waitJob(t testing.TB, ts *httptest.Server, id string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := getJSON(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d, body %s", id, resp.StatusCode, body)
		}
		var v jobJSON
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if v.Status.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, v.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sseEvent is one parsed frame of an SSE stream.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes a job's whole event stream (the server ends it after
// the terminal event) and returns the parsed frames, ignoring comments
// and heartbeats.
func readSSE(t testing.TB, url string) []sseEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("SSE %s: status %d, body %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, ":"): // comment / heartbeat / drop report
		case strings.HasPrefix(line, "event: "):
			cur.name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		case strings.HasPrefix(line, "id: "):
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE read: %v", err)
	}
	return events
}

// pipelineSkeleton is the golden event ordering of one cold synthesis:
// the lifecycle pair, the five pipeline phases in execution order as
// start/end pairs, then the terminal event — with the ephemeral
// search-progress ticks filtered out.
var pipelineSkeleton = []string{
	"queued",
	"running",
	"phase-start:validate", "phase-end:validate",
	"phase-start:register-bind", "phase-end:register-bind",
	"phase-start:interconnect", "phase-end:interconnect",
	"phase-start:datapath", "phase-end:datapath",
	"phase-start:bist-search", "phase-end:bist-search",
	"done",
}

// skeletonOf renders events as name (or name:phase) strings with
// search-progress removed, and verifies progress ticks only ever occur
// inside the bist-search phase window.
func skeletonOf(t testing.TB, events []sseEvent) []string {
	t.Helper()
	var out []string
	inSearch := false
	for _, ev := range events {
		var payload struct {
			Phase string `json:"phase"`
		}
		_ = json.Unmarshal([]byte(ev.data), &payload)
		switch ev.name {
		case "search-progress":
			if !inSearch {
				t.Errorf("search-progress outside the bist-search window")
			}
			continue
		case "phase-start":
			inSearch = payload.Phase == "bist-search"
		case "phase-end":
			inSearch = false
		}
		if ev.name == "phase-start" || ev.name == "phase-end" {
			out = append(out, ev.name+":"+payload.Phase)
		} else {
			out = append(out, ev.name)
		}
	}
	return out
}

// countTerminals returns how many terminal events the stream carried.
func countTerminals(events []sseEvent) int {
	n := 0
	for _, ev := range events {
		switch ev.name {
		case string(StatusDone), string(StatusFailed), string(StatusCanceled):
			n++
		}
	}
	return n
}

// The full service lifecycle for every paper benchmark: submit → stream
// SSE → poll terminal → fetch result. The SSE skeleton is pinned to the
// golden pipeline ordering with exactly one terminal event.
func TestServiceLifecycleAllBenchmarks(t *testing.T) {
	cc, err := bistpath.NewCache(bistpath.CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Cache: cc})
	for _, name := range bistpath.BenchmarkNames() {
		id := submitBenchmark(t, ts, name)
		events := readSSE(t, ts.URL+"/v1/jobs/"+id+"/events")
		if got := skeletonOf(t, events); !equalStrings(got, pipelineSkeleton) {
			t.Errorf("%s: SSE skeleton =\n  %v\nwant\n  %v", name, got, pipelineSkeleton)
		}
		if n := countTerminals(events); n != 1 {
			t.Errorf("%s: %d terminal events, want exactly 1", name, n)
		}

		view := waitJob(t, ts, id)
		if view.Status != StatusDone {
			t.Fatalf("%s: status %s (error %q)", name, view.Status, view.Error)
		}
		if view.CacheHit {
			t.Errorf("%s: cold submission reported a cache hit", name)
		}
		if len(view.Result) == 0 {
			t.Errorf("%s: done view carries no result document", name)
		}

		resp, body := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: result status %d", name, resp.StatusCode)
		}
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: result not JSON: %v", name, err)
		}
		if doc["name"] != name || int(doc["schema"].(float64)) != bistpath.ResultSchemaVersion {
			t.Errorf("%s: result name/schema = %v/%v", name, doc["name"], doc["schema"])
		}
	}

	// A duplicate submission is served from the shared cache: terminal
	// view flags the hit and the stream carries a cache-hit event in
	// place of a BIST search, still ending in exactly one terminal.
	id := submitBenchmark(t, ts, "ex1")
	view := waitJob(t, ts, id)
	if view.Status != StatusDone || !view.CacheHit {
		t.Fatalf("warm resubmission: status %s, cache_hit %t", view.Status, view.CacheHit)
	}
	events := readSSE(t, ts.URL+"/v1/jobs/"+id+"/events")
	if n := countTerminals(events); n != 1 {
		t.Errorf("warm stream: %d terminal events, want 1", n)
	}
	sawHit := false
	for _, ev := range events {
		if ev.name == "cache-hit" {
			sawHit = true
		}
		if ev.name == "phase-start" && strings.Contains(ev.data, "bist-search") {
			t.Errorf("warm stream ran a BIST search")
		}
	}
	if !sawHit {
		t.Errorf("warm stream missing the cache-hit event: %v", skeletonOf(t, events))
	}
}

// The wire byte-identity guarantee: the served result document is
// byte-identical to what `bistpath synth -bench NAME -json -cache-dir
// DIR` prints for the same input, because both sides replay the same
// cache entry. (CI additionally diffs the real binaries end to end.)
func TestServedResultByteIdenticalToCLI(t *testing.T) {
	dir := t.TempDir()
	cc, err := bistpath.NewCache(bistpath.CacheOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Cache: cc})
	for _, name := range bistpath.BenchmarkNames() {
		id := submitBenchmark(t, ts, name)
		if view := waitJob(t, ts, id); view.Status != StatusDone {
			t.Fatalf("%s: %s (%s)", name, view.Status, view.Error)
		}
		_, served := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")

		// The CLI path: a fresh cache over the same directory, default
		// config, Result.JSON() plus fmt.Println's newline.
		cli, err := bistpath.NewCache(bistpath.CacheOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		d, mods, err := bistpath.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := bistpath.DefaultConfig()
		cfg.Cache = cli
		res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.CacheHit {
			t.Fatalf("%s: CLI-side run missed the shared disk cache", name)
		}
		doc, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		want := append(doc, '\n')
		if !bytes.Equal(served, want) {
			t.Errorf("%s: served result differs from CLI output\nserved: %d bytes\ncli:    %d bytes", name, len(served), len(want))
		}
	}
}

// Late subscribers replay the full ordered history: subscribing after
// the job concluded yields the same golden skeleton and single terminal.
func TestSSEReplayAfterCompletion(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := submitBenchmark(t, ts, "paulin")
	waitJob(t, ts, id)
	for i := 0; i < 2; i++ { // replay is repeatable, not consumed
		events := readSSE(t, ts.URL+"/v1/jobs/"+id+"/events")
		if got := skeletonOf(t, events); !equalStrings(got, pipelineSkeleton) {
			t.Errorf("replay %d: skeleton = %v", i, got)
		}
		if n := countTerminals(events); n != 1 {
			t.Errorf("replay %d: %d terminal events", i, n)
		}
	}
}

// The service surface around jobs: list, benchmarks, health, metrics.
func TestServiceAncillaryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := submitBenchmark(t, ts, "ex2")
	waitJob(t, ts, id)

	resp, body := getJSON(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list struct {
		Jobs []jobJSON `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil || len(list.Jobs) != 1 || list.Jobs[0].ID != id {
		t.Fatalf("list = %s (err %v)", body, err)
	}

	resp, body = getJSON(t, ts.URL+"/v1/benchmarks")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "tseng1") {
		t.Fatalf("benchmarks: %d %s", resp.StatusCode, body)
	}

	resp, body = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	resp, body = getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	for _, key := range []string{"bistpathd.jobs_submitted", "bistpathd.jobs_done", "bistpath.syntheses"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}

	if resp, _ := getJSON(t, ts.URL+"/v1/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route: %d, want 404", resp.StatusCode)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
