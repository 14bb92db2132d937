package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bistpath"
)

// This file implements incremental re-synthesis over the wire:
// PATCH /v1/jobs/{id} applies a batch of typed edits to a completed
// job's design and admits a derived job that re-synthesizes it through
// a bistpath.Session, so conflict-preserving edits reuse the previous
// run's register binding, netlist and BIST plan instead of paying for a
// cold search.

// observerRelay is a retargetable bistpath.Observer: the session's
// Config pins its Observer once at creation, but each derived job wants
// the phase events on its own SSE hub, so the pinned observer forwards
// to whatever hub is installed for the current run.
type observerRelay struct {
	v atomic.Pointer[hub]
}

func (o *observerRelay) observe(e bistpath.Event) {
	if h := o.v.Load(); h != nil {
		h.observe(e)
	}
}

// sessionRef is the shared incremental-synthesis state of one job
// lineage (the originally POSTed job and every job PATCH derived from
// it). It owns the bistpath.Session plus the base design and the log of
// successfully applied edits; a failed batch drops the session, and the
// next PATCH rebuilds it by replaying the log, so one bad edit never
// poisons the lineage.
type sessionRef struct {
	relay *observerRelay

	mu      sync.Mutex
	d       *bistpath.DFG
	mods    map[string]string
	cfg     bistpath.Config // Observer cleared; the relay is installed per session
	ss      *bistpath.Session
	applied []patchEdit // every edit a successful PATCH has applied, in order
}

// patchRequest is the PATCH /v1/jobs/{id} body.
type patchRequest struct {
	// Edits are applied in order to the job's design before the
	// incremental re-synthesis. At least one is required.
	Edits []patchEdit `json:"edits"`
}

// patchEdit is one typed design edit, mirroring the bistpath.Session
// mutators. Kind selects the mutator; the other fields are its
// arguments.
type patchEdit struct {
	// Kind is one of "set_step", "replace_op", "remap_module",
	// "retime_port".
	Kind   string `json:"kind"`
	Op     string `json:"op,omitempty"`      // set_step, replace_op, remap_module
	Step   int    `json:"step,omitempty"`    // set_step
	OpKind string `json:"op_kind,omitempty"` // replace_op: + - * / & | ^ < >
	Module string `json:"module,omitempty"`  // remap_module
	Var    string `json:"var,omitempty"`     // retime_port
	Port   bool   `json:"port,omitempty"`    // retime_port
}

// check validates the edit's shape (not its applicability, which the
// session mutator decides against the live design).
func (e patchEdit) check() error {
	switch e.Kind {
	case "set_step", "replace_op", "remap_module":
		if e.Op == "" {
			return fmt.Errorf("edit %q needs op", e.Kind)
		}
	case "retime_port":
		if e.Var == "" {
			return fmt.Errorf("edit %q needs var", e.Kind)
		}
	default:
		return fmt.Errorf("unknown edit kind %q", e.Kind)
	}
	return nil
}

// apply dispatches the edit to the matching session mutator.
func (e patchEdit) apply(ss *bistpath.Session) error {
	switch e.Kind {
	case "set_step":
		return ss.SetStep(e.Op, e.Step)
	case "replace_op":
		return ss.ReplaceOp(e.Op, e.OpKind)
	case "remap_module":
		return ss.RemapModule(e.Op, e.Module)
	case "retime_port":
		return ss.RetimePort(e.Var, e.Port)
	}
	return fmt.Errorf("unknown edit kind %q", e.Kind)
}

// resynthesize applies one edit batch and re-synthesizes, holding the
// lineage lock so concurrent PATCHes serialize into a deterministic
// edit order. On any failure the session is dropped; the next call
// rebuilds it from the base design plus the applied-edit log (which
// only ever contains edits whose batch fully succeeded).
func (ref *sessionRef) resynthesize(ctx context.Context, synth *bistpath.Synthesizer, h *hub, edits []patchEdit) (*bistpath.Result, error) {
	ref.mu.Lock()
	defer ref.mu.Unlock()
	if ref.ss == nil {
		cfg := ref.cfg
		cfg.Observer = ref.relay.observe
		ss, err := synth.NewSessionConfig(ref.d, ref.mods, cfg)
		if err != nil {
			return nil, err
		}
		for _, e := range ref.applied {
			if err := e.apply(ss); err != nil {
				ss.Close()
				return nil, fmt.Errorf("replaying session edits: %w", err)
			}
		}
		ref.ss = ss
	}
	drop := func() {
		ref.ss.Close()
		ref.ss = nil
	}
	for _, e := range edits {
		if err := e.apply(ref.ss); err != nil {
			drop()
			return nil, err
		}
	}
	ref.relay.v.Store(h)
	defer ref.relay.v.Store(nil)
	res, err := ref.ss.Resynthesize(ctx)
	if err != nil {
		drop()
		return nil, err
	}
	ref.applied = append(ref.applied, edits...)
	return res, nil
}

// clientKey identifies the requester for the per-client job quota: the
// X-Client-ID header when present (so pooled proxies can pass through
// the real principal), otherwise the connection's remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" && len(id) <= 128 {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, r, &apiError{status: http.StatusServiceUnavailable, msg: "server is draining"})
		return
	}
	j := s.job(w, r)
	if j == nil {
		return
	}
	body, err := readBody(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	var req patchRequest
	if err := unmarshalStrict(body, &req); err != nil {
		writeError(w, r, &apiError{status: http.StatusBadRequest, msg: "bad request body: " + err.Error()})
		return
	}
	if len(req.Edits) == 0 {
		writeError(w, r, validationError("need at least one edit"))
		return
	}
	for _, e := range req.Edits {
		if err := e.check(); err != nil {
			writeError(w, r, validationError(err.Error()))
			return
		}
	}
	view, err := s.jobs.resubmit(j, req.Edits, clientKey(r))
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

// resubmit admits a job derived from parent by an edit batch. The
// parent must have completed successfully (its design seeds the
// session); a derived job is itself PATCHable once done, continuing
// the same session lineage. Like submit, it returns the view as admitted.
func (m *manager) resubmit(parent *job, edits []patchEdit, client string) (jobJSON, error) {
	parent.mu.Lock()
	st := parent.status
	parent.mu.Unlock()
	if st != StatusDone {
		return jobJSON{}, &apiError{status: http.StatusConflict,
			msg: fmt.Sprintf("job is %s; PATCH needs a completed job", st)}
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		design:    parent.design,
		clientKey: client,
		created:   time.Now(),
		hub:       newHub(),
		cancel:    cancel,
		done:      make(chan struct{}),
		status:    StatusQueued,
	}

	m.mu.Lock()
	if err := m.admitLocked(j, client); err != nil {
		m.mu.Unlock()
		cancel()
		return jobJSON{}, err
	}
	// The session lineage root: reuse the parent's, or start one on it.
	if parent.ref == nil {
		parent.ref = &sessionRef{
			relay: &observerRelay{},
			d:     parent.d,
			mods:  parent.mods,
			cfg:   parent.cfg,
		}
	}
	j.ref = parent.ref
	j.root = parent.rootID()
	m.mu.Unlock()

	expJobsSubmitted.Add(1)
	expJobsPatched.Add(1)
	j.hub.publishLifecycle(string(StatusQueued), j.id, j.design, false)
	admitted := j.view(false)
	go m.runPatch(ctx, j, edits)
	return admitted, nil
}

// runPatch is the derived job's goroutine: pool slot, then the session
// re-synthesis, then the single terminal transition.
func (m *manager) runPatch(ctx context.Context, j *job, edits []patchEdit) {
	defer m.wg.Done()
	if err := m.srv.pool.Acquire(ctx); err != nil {
		m.finish(j, bistpath.BatchResult{Name: j.design, Err: err})
		return
	}
	var br bistpath.BatchResult
	func() {
		defer m.srv.pool.Release()
		j.setStatus(StatusRunning)
		j.hub.publishLifecycle(string(StatusRunning), j.id, j.design, false)
		if hook := m.srv.testHook; hook != nil {
			if err := hook(ctx, j.design); err != nil {
				br = bistpath.BatchResult{Name: j.design, Err: err}
				return
			}
		}
		br = bistpath.BatchResult{Name: j.design}
		br.Result, br.Err = j.ref.resynthesize(ctx, m.srv.synth, j.hub, edits)
	}()
	m.finish(j, br)
}
