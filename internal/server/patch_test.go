package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bistpath"
)

// ex1Text is the Table II running example in the textual DFG format,
// parameterized by mul2's control step so tests can submit the edited
// design cold and compare it byte-for-byte against a PATCH result.
func ex1Text(mul2Step int) string {
	return fmt.Sprintf(`dfg ex1
input a b e g
op add1 + a b -> d @1
op mul1 * e g -> c @2
op add2 + c d -> f @3
op mul2 * f g -> h @%d
output h
`, mul2Step)
}

const ex1Modules = `{"add1":"M1","add2":"M1","mul1":"M2","mul2":"M2"}`

// submitDFG posts a raw DFG job and waits for it to complete.
func submitDFG(t *testing.T, ts *httptest.Server, text string) string {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"dfg":%q,"modules":%s}`, text, ex1Modules))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, ts, sub.ID); v.Status != StatusDone {
		t.Fatalf("job %s concluded %s: %s", sub.ID, v.Status, v.Error)
	}
	return sub.ID
}

// patchJob PATCHes id with the edit document and returns the response.
func patchJob(t *testing.T, ts *httptest.Server, id, edits string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/jobs/"+id, strings.NewReader(edits))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// patchDone PATCHes and waits for the derived job, asserting it lands
// Done with the root lineage recorded. Returns the derived job's id.
func patchDone(t *testing.T, ts *httptest.Server, id, root, edits string) string {
	t.Helper()
	resp, body := patchJob(t, ts, id, edits)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("PATCH %s: status %d, body %s", id, resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Root != root {
		t.Fatalf("derived job root = %q, want %q", sub.Root, root)
	}
	if v := waitJob(t, ts, sub.ID); v.Status != StatusDone {
		t.Fatalf("derived job %s concluded %s: %s", sub.ID, v.Status, v.Error)
	}
	return sub.ID
}

func resultDoc(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, body := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d, body %s", id, resp.StatusCode, body)
	}
	return body
}

// stripStats removes the wall-time stats block: two separately timed
// runs can never agree on *_ns fields, so the wire identity contract —
// like the library's differential tests — is over everything else.
func stripStats(t *testing.T, doc []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatalf("result document does not parse: %v", err)
	}
	delete(m, "stats")
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPatchIncrementalByteIdentity is the wire form of the session
// byte-identity contract: a job PATCHed with a step edit must serve the
// exact bytes a cold submission of the identically edited design
// serves, and PATCHing the edit back must reproduce the original job's
// document.
func TestPatchIncrementalByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	base := submitDFG(t, ts, ex1Text(4))
	coldEdited := submitDFG(t, ts, ex1Text(5))

	edited := patchDone(t, ts, base, base,
		`{"edits":[{"kind":"set_step","op":"mul2","step":5}]}`)
	if got, want := stripStats(t, resultDoc(t, ts, edited)), stripStats(t, resultDoc(t, ts, coldEdited)); !bytes.Equal(got, want) {
		t.Errorf("PATCH result diverges from cold synthesis of the edited design\n--- patched ---\n%s\n--- cold ---\n%s", got, want)
	}

	// Undo via a second PATCH on the derived job: the session lineage
	// continues, and the document must match the original job's.
	undone := patchDone(t, ts, edited, base,
		`{"edits":[{"kind":"set_step","op":"mul2","step":4}]}`)
	if got, want := stripStats(t, resultDoc(t, ts, undone)), stripStats(t, resultDoc(t, ts, base)); !bytes.Equal(got, want) {
		t.Errorf("PATCH-undo result diverges from the original job's document\n--- undone ---\n%s\n--- original ---\n%s", got, want)
	}

	// The derived job streams its own lifecycle: the SSE stream must end
	// in a done terminal event.
	evs := readSSE(t, ts.URL+"/v1/jobs/"+edited+"/events")
	if len(evs) == 0 || evs[len(evs)-1].name != string(StatusDone) {
		t.Fatalf("derived job SSE stream = %v, want trailing done", evs)
	}
}

// TestPatchValidation covers the PATCH route's failure surface,
// including that a failed edit batch does not poison the session
// lineage for subsequent PATCHes.
func TestPatchValidation(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})

	resp, _ := patchJob(t, ts, "j-missing", `{"edits":[{"kind":"set_step","op":"x","step":1}]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("PATCH unknown job: status %d, want 404", resp.StatusCode)
	}

	base := submitDFG(t, ts, ex1Text(4))
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"empty edits", `{"edits":[]}`, http.StatusUnprocessableEntity},
		{"missing edits", `{}`, http.StatusUnprocessableEntity},
		{"unknown kind", `{"edits":[{"kind":"rename","op":"mul2"}]}`, http.StatusUnprocessableEntity},
		{"missing op", `{"edits":[{"kind":"set_step","step":2}]}`, http.StatusUnprocessableEntity},
		{"missing var", `{"edits":[{"kind":"retime_port","port":true}]}`, http.StatusUnprocessableEntity},
		{"unknown field", `{"edits":[{"kind":"set_step","op":"mul2","step":2}],"x":1}`, http.StatusBadRequest},
		{"malformed json", `{"edits":`, http.StatusBadRequest},
	} {
		if resp, body := patchJob(t, ts, base, tc.body); resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, resp.StatusCode, tc.status, body)
		}
	}

	// A structurally valid edit naming a nonexistent op is admitted but
	// fails the derived job...
	resp, body := patchJob(t, ts, base, `{"edits":[{"kind":"set_step","op":"nosuch","step":2}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bad-op PATCH: status %d, body %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, ts, sub.ID); v.Status != StatusFailed {
		t.Fatalf("bad-op derived job concluded %s, want failed", v.Status)
	}
	// ...and the lineage recovers: the next PATCH rebuilds the session
	// and still matches a cold run of the edited design.
	coldEdited := submitDFG(t, ts, ex1Text(5))
	ok := patchDone(t, ts, base, base, `{"edits":[{"kind":"set_step","op":"mul2","step":5}]}`)
	if got, want := stripStats(t, resultDoc(t, ts, ok)), stripStats(t, resultDoc(t, ts, coldEdited)); !bytes.Equal(got, want) {
		t.Errorf("post-failure PATCH diverges from cold synthesis")
	}

	// PATCH needs a completed parent: a held (running) job answers 409.
	release := make(chan struct{})
	srv.testHook = func(ctx context.Context, design string) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	respS, bodyS := postJSON(t, ts.URL+"/v1/jobs", `{"benchmark":"ex1"}`)
	if respS.StatusCode != http.StatusAccepted {
		t.Fatalf("submit held job: status %d, body %s", respS.StatusCode, bodyS)
	}
	var held submitResponse
	if err := json.Unmarshal(bodyS, &held); err != nil {
		t.Fatal(err)
	}
	resp, _ = patchJob(t, ts, held.ID, `{"edits":[{"kind":"set_step","op":"mul2","step":5}]}`)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("PATCH running job: status %d, want 409", resp.StatusCode)
	}
	close(release)
	waitJob(t, ts, held.ID)
}

// TestPatchJobPanicContained: a panic inside a PATCH job fails only
// that job. Its stream carries exactly one panic-recovered event and
// one terminal event, the next PATCH on the same lineage succeeds, and
// the server keeps serving.
func TestPatchJobPanicContained(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	var armed atomic.Bool
	srv.testHook = func(ctx context.Context, design string) error {
		if armed.CompareAndSwap(true, false) {
			panic("injected PATCH panic")
		}
		return nil
	}

	base := submitDFG(t, ts, ex1Text(4))
	armed.Store(true)
	edit := `{"edits":[{"kind":"set_step","op":"mul2","step":5}]}`
	resp, body := patchJob(t, ts, base, edit)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("PATCH: status %d, body %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, ts, sub.ID); v.Status != StatusFailed || !strings.Contains(v.Error, "panicked") {
		t.Fatalf("panicking PATCH job concluded %s (%q), want failed with the panic", v.Status, v.Error)
	}
	evs := readSSE(t, ts.URL+"/v1/jobs/"+sub.ID+"/events")
	panics := 0
	for _, ev := range evs {
		if ev.name == bistpath.PanicRecovered.String() {
			panics++
		}
	}
	if panics != 1 || countTerminals(evs) != 1 || evs[len(evs)-1].name != string(StatusFailed) {
		t.Errorf("panicking PATCH stream = %v, want one panic-recovered then one failed terminal event", evs)
	}

	coldEdited := submitDFG(t, ts, ex1Text(5))
	ok := patchDone(t, ts, base, base, edit)
	if got, want := stripStats(t, resultDoc(t, ts, ok)), stripStats(t, resultDoc(t, ts, coldEdited)); !bytes.Equal(got, want) {
		t.Errorf("PATCH after the panic diverges from cold synthesis")
	}
	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after the panic: %d", resp.StatusCode)
	}
}

// TestClientQuotaStorm hammers a quota-limited server with concurrent
// submissions from one client: exactly MaxJobsPerClient are admitted
// while the rest answer 429 with a Retry-After header, and slots free
// as jobs conclude. Run with -race.
func TestClientQuotaStorm(t *testing.T) {
	const quota = 2
	srv, ts := newTestServer(t, Options{Workers: 2, MaxJobsPerClient: quota})
	release := make(chan struct{})
	srv.testHook = func(ctx context.Context, design string) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	submit := func() (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(`{"benchmark":"ex1"}`))
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		req.Header.Set("X-Client-ID", "storm-client")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	const attempts = 10
	var (
		mu       sync.Mutex
		admitted []string
		refused  int
		wg       sync.WaitGroup
	)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := submit()
			if resp == nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusAccepted:
				var sub submitResponse
				if err := json.Unmarshal(body, &sub); err != nil {
					t.Error(err)
					return
				}
				admitted = append(admitted, sub.ID)
			case http.StatusTooManyRequests:
				refused++
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After header")
				}
			default:
				t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	// The held jobs never conclude during the storm, so admissions are
	// exactly the quota and everything else was refused.
	if len(admitted) != quota || refused != attempts-quota {
		t.Fatalf("admitted %d, refused %d; want %d and %d", len(admitted), refused, quota, attempts-quota)
	}

	// A different client is not starved by the full quota.
	respO, bodyO := postJSON(t, ts.URL+"/v1/jobs", `{"benchmark":"ex2"}`)
	if respO.StatusCode != http.StatusAccepted {
		t.Fatalf("other client refused: status %d, body %s", respO.StatusCode, bodyO)
	}
	var other submitResponse
	if err := json.Unmarshal(bodyO, &other); err != nil {
		t.Fatal(err)
	}

	// Conclude the held jobs; the freed slots admit the client again,
	// and the quota also governs the PATCH route.
	close(release)
	for _, id := range admitted {
		waitJob(t, ts, id)
	}
	waitJob(t, ts, other.ID)

	req, _ := http.NewRequest(http.MethodPatch, ts.URL+"/v1/jobs/"+admitted[0],
		strings.NewReader(`{"edits":[{"kind":"set_step","op":"mul2","step":5}]}`))
	req.Header.Set("X-Client-ID", "storm-client")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("PATCH after drain: status %d, body %s", resp.StatusCode, buf.Bytes())
	}
	var sub submitResponse
	if err := json.Unmarshal(buf.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, ts, sub.ID); v.Status != StatusDone {
		t.Fatalf("patched job concluded %s: %s", v.Status, v.Error)
	}
}

// TestPatchStorm fires concurrent PATCHes at one completed job: the
// session serializes the edit batches, every derived job must conclude
// done, and every served document must be a valid result for the
// design. Run with -race.
func TestPatchStorm(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	base := submitDFG(t, ts, ex1Text(4))

	const patchers = 8
	var wg sync.WaitGroup
	ids := make([]string, patchers)
	for i := 0; i < patchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			step := 4 + i%2
			resp, body := patchJob(t, ts, base,
				fmt.Sprintf(`{"edits":[{"kind":"set_step","op":"mul2","step":%d}]}`, step))
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("patcher %d: status %d, body %s", i, resp.StatusCode, body)
				return
			}
			var sub submitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				t.Error(err)
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			continue
		}
		if v := waitJob(t, ts, id); v.Status != StatusDone {
			t.Errorf("patcher %d job concluded %s: %s", i, v.Status, v.Error)
			continue
		}
		var doc struct {
			Design string `json:"name"`
		}
		if err := json.Unmarshal(resultDoc(t, ts, id), &doc); err != nil {
			t.Errorf("patcher %d result: %v", i, err)
		} else if doc.Design != "ex1" {
			t.Errorf("patcher %d result design = %q", i, doc.Design)
		}
	}
}
