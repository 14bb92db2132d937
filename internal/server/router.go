package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"io"
	"net/http"

	"bistpath"
)

// buildHandler assembles the route table and the middleware stack:
//
//	request-id → recover → body-limit → { timeout(api) | sse }
//
// Request IDs sit outermost so the recovery middleware's 500 response
// can carry the ID of the request that panicked. The SSE endpoint sits
// outside the timeout wrapper (streams live until the job's terminal
// event) but inside recovery and request IDs.
func (s *Server) buildHandler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("POST /v1/jobs", s.handleSubmit)
	api.HandleFunc("GET /v1/jobs", s.handleList)
	api.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	api.HandleFunc("PATCH /v1/jobs/{id}", s.handlePatch)
	api.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	api.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	api.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	api.Handle("GET /metrics", expvar.Handler())
	api.HandleFunc("GET /healthz", s.handleHealthz)
	api.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, r, &apiError{status: http.StatusNotFound, msg: "not found"})
	})

	root := http.NewServeMux()
	root.Handle("/", withTimeout(s.opts.Timeout, api))
	root.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	return withRequestID(withRecover(withBodyLimit(s.opts.MaxBody, root)))
}

// submitResponse is the 202 body: the job's initial view plus the
// resource links a client follows next.
type submitResponse struct {
	jobJSON
	Links map[string]string `json:"links"`
}

// readBody drains the (already limit-wrapped) request body, converting
// the limiter's error into the 413 apiError.
func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &apiError{status: http.StatusRequestEntityTooLarge,
				msg: "request body too large"}
		}
		return nil, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	return body, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, r, &apiError{status: http.StatusServiceUnavailable, msg: "server is draining"})
		return
	}
	body, err := readBody(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	var req submitRequest
	if err := unmarshalStrict(body, &req); err != nil {
		writeError(w, r, &apiError{status: http.StatusBadRequest, msg: "bad request body: " + err.Error()})
		return
	}
	view, err := s.jobs.submit(req, clientKey(r))
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{
		jobJSON: view,
		Links: map[string]string{
			"self":   "/v1/jobs/" + view.ID,
			"events": "/v1/jobs/" + view.ID + "/events",
			"result": "/v1/jobs/" + view.ID + "/result",
		},
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *job {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, r, &apiError{status: http.StatusNotFound, msg: "unknown job"})
	}
	return j
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

// handleResult serves a completed job's Result.JSON() document plus the
// trailing newline — the exact bytes `bistpath synth -json` prints, so
// the cache's byte-identity guarantee extends to the wire. Jobs not
// (or never) completing answer 409 with their status view.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	doc, done := j.resultBytes()
	if !done {
		writeJSON(w, http.StatusConflict, j.view(false))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(doc)
	w.Write([]byte("\n"))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.cancel()
	writeJSON(w, http.StatusAccepted, j.view(false))
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	serveSSE(w, r, j.hub, s.opts.Heartbeat)
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"benchmarks": bistpath.BenchmarkNames()})
}

// handleHealthz doubles as the readiness probe: a draining server
// answers 503 so load balancers stop routing new work to it while the
// in-flight jobs conclude.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// unmarshalStrict rejects unknown fields so a typo'd config key fails
// loudly instead of silently synthesizing with defaults.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
