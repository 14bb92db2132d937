package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// decodeError unmarshals a service error response.
func decodeError(t testing.TB, body []byte) errorJSON {
	t.Helper()
	var e errorJSON
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body not JSON: %v (%s)", err, body)
	}
	return e
}

// Oversized request bodies are refused with 413 before any parsing.
func TestSubmitOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBody: 256})
	big := fmt.Sprintf(`{"dfg":%q}`, strings.Repeat("x", 1024))
	resp, body := postJSON(t, ts.URL+"/v1/jobs", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", resp.StatusCode, body)
	}
	e := decodeError(t, body)
	if e.Status != http.StatusRequestEntityTooLarge || e.RequestID == "" {
		t.Errorf("error = %+v, want status 413 with a request ID", e)
	}

	// The limit applies to the wire, not the design: a small valid
	// submission on the same server is fine.
	if resp, _ := postJSON(t, ts.URL+"/v1/jobs", `{"benchmark":"ex1"}`); resp.StatusCode != http.StatusAccepted {
		t.Errorf("small submit after 413: %d", resp.StatusCode)
	}
}

// Malformed and invalid submissions come back as typed errors carrying
// the same validate-phase attribution a pipeline SynthesisError would.
func TestSubmitValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name   string
		body   string
		status int
		phase  string
	}{
		{"not json", `{{{`, http.StatusBadRequest, ""},
		{"unknown field", `{"benchmork":"ex1"}`, http.StatusBadRequest, ""},
		{"neither input", `{}`, http.StatusUnprocessableEntity, "validate"},
		{"both inputs", `{"benchmark":"ex1","dfg":"graph g {}"}`, http.StatusUnprocessableEntity, "validate"},
		{"unknown benchmark", `{"benchmark":"nope"}`, http.StatusUnprocessableEntity, "validate"},
		{"malformed dfg", `{"dfg":"this is not a dfg"}`, http.StatusUnprocessableEntity, "validate"},
		{"width out of range", `{"benchmark":"ex1","config":{"width":0}}`, http.StatusUnprocessableEntity, "validate"},
		{"unknown mode", `{"benchmark":"ex1","config":{"mode":"quantum"}}`, http.StatusUnprocessableEntity, "validate"},
		{"removed workers key", `{"benchmark":"ex1","config":{"workers":2}}`, http.StatusBadRequest, ""},
		{"modules on benchmark", `{"benchmark":"ex1","modules":{"op1":"m1"}}`, http.StatusUnprocessableEntity, "validate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/jobs", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			e := decodeError(t, body)
			if e.Phase != tc.phase {
				t.Errorf("phase = %q, want %q", e.Phase, tc.phase)
			}
			if e.Error == "" || e.RequestID == "" {
				t.Errorf("error = %+v, want a message and request ID", e)
			}
		})
	}

	// Invalid submissions never become jobs.
	resp, body := getJSON(t, ts.URL+"/v1/jobs")
	var list struct {
		Jobs []jobJSON `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(list.Jobs) != 0 {
		t.Errorf("jobs list after rejections: %d %s", resp.StatusCode, body)
	}
}

// A panicking handler yields a clean 500 carrying the request ID, the
// panic counter ticks, and the server keeps serving afterwards. The
// panicking route rides the server's own middleware chain.
func TestHandlerPanicRecovery(t *testing.T) {
	s := New(Options{})
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	chain := withRequestID(withRecover(mux))
	ts := httptest.NewServer(chain)
	t.Cleanup(ts.Close)

	before := expHandlerPanics.Value()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/boom", nil)
	req.Header.Set("X-Request-ID", "trace-me-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (%s)", resp.StatusCode, body)
	}
	e := decodeError(t, body)
	if e.RequestID != "trace-me-1" {
		t.Errorf("request_id = %q, want the client-provided trace ID", e.RequestID)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-1" {
		t.Errorf("X-Request-ID header = %q", got)
	}
	if expHandlerPanics.Value() != before+1 {
		t.Errorf("handler_panics = %d, want %d", expHandlerPanics.Value(), before+1)
	}

	// The connection goroutine recovered; the real API is still up.
	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic: %d", resp.StatusCode)
	}
	id := submitBenchmark(t, ts, "ex1")
	if v := waitJob(t, ts, id); v.Status != StatusDone {
		t.Errorf("post-panic job: %s (%s)", v.Status, v.Error)
	}
}

// Cancelling a running job (DELETE) concludes it as canceled — with the
// terminal SSE event — and releases its worker slot: the next job on a
// one-worker pool runs immediately.
func TestCancelRunningJobReleasesPool(t *testing.T) {
	srv := New(Options{Workers: 1, Heartbeat: 20 * time.Millisecond})
	// ex1 jobs park in the hook until their context is cancelled;
	// everything else synthesizes normally.
	srv.testHook = func(ctx context.Context, design string) error {
		if design == "ex1" {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	id := submitBenchmark(t, ts, "ex1")
	waitStatus(t, ts, id, StatusRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	if v := waitJob(t, ts, id); v.Status != StatusCanceled {
		t.Fatalf("cancelled job: %s (%s)", v.Status, v.Error)
	}
	events := readSSE(t, ts.URL+"/v1/jobs/"+id+"/events")
	if n := countTerminals(events); n != 1 {
		t.Errorf("cancelled stream: %d terminal events", n)
	}
	if last := events[len(events)-1]; last.name != string(StatusCanceled) {
		t.Errorf("cancelled stream ends with %q", last.name)
	}

	// The single worker slot came back: a normal job completes.
	id2 := submitBenchmark(t, ts, "ex2")
	if v := waitJob(t, ts, id2); v.Status != StatusDone {
		t.Errorf("job after cancel: %s (%s) — pool wedged?", v.Status, v.Error)
	}

	// Results for non-done jobs answer 409 with the status view.
	resp2, body := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if resp2.StatusCode != http.StatusConflict || !strings.Contains(string(body), string(StatusCanceled)) {
		t.Errorf("result of cancelled job: %d %s", resp2.StatusCode, body)
	}
}

// A drain whose deadline expires cancels the stragglers: they conclude
// as canceled (not wedged, not lost), Drain returns the context error,
// and the pool is fully released.
func TestDrainDeadlineCancelsJobs(t *testing.T) {
	srv := New(Options{Workers: 2, Heartbeat: 20 * time.Millisecond})
	srv.testHook = func(ctx context.Context, design string) error {
		<-ctx.Done() // every job parks until drained away
		return ctx.Err()
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	ids := []string{
		submitBenchmark(t, ts, "ex1"),
		submitBenchmark(t, ts, "ex2"),
		submitBenchmark(t, ts, "tseng1"), // queued behind the 2 workers
	}
	waitStatus(t, ts, ids[0], StatusRunning)

	dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain = %v, want deadline exceeded", err)
	}
	for _, id := range ids {
		v := waitJob(t, ts, id)
		if v.Status != StatusCanceled {
			t.Errorf("job %s: %s, want canceled", id, v.Status)
		}
		events := readSSE(t, ts.URL+"/v1/jobs/"+id+"/events")
		if n := countTerminals(events); n != 1 {
			t.Errorf("job %s: %d terminal events after forced drain", id, n)
		}
	}

	// Draining status is reflected on the control endpoints.
	if !srv.Draining() {
		t.Error("Draining() = false after Drain")
	}
	resp, _ := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained: %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", `{"benchmark":"ex1"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while drained: %d, want 503", resp.StatusCode)
	}

	// Drain is idempotent: a second call returns promptly (all jobs are
	// already terminal).
	d2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Drain(d2); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// Unknown jobs 404 on every per-job route.
func TestUnknownJobRoutes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		resp, body := getJSON(t, ts.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d (%s)", path, resp.StatusCode, body)
		}
	}
}

// waitStatus polls until the job reaches the wanted transient status (or
// any terminal state, which fails the test).
func waitStatus(t testing.TB, ts *httptest.Server, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := getJSON(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: %d", id, resp.StatusCode)
		}
		var v jobJSON
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == want {
			return
		}
		if v.Status.Terminal() {
			t.Fatalf("job %s reached %s while waiting for %s", id, v.Status, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %s waiting for %s", id, v.Status, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
