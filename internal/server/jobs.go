package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"bistpath"
)

// Status is a job's lifecycle state. Queued and Running are transient;
// Done, Failed and Canceled are terminal.
type Status string

// Job states, in lifecycle order.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether s is a final state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// job is one submission's server-side record. The exported-ish view is
// jobJSON; result holds the exact Result.JSON() bytes so GET
// /v1/jobs/{id}/result can serve them unmodified.
type job struct {
	id        string
	design    string
	clientKey string // quota accounting key; "" for direct manager use
	root      string // lineage root job id; "" unless derived via PATCH
	created   time.Time
	hub       *hub
	cancel    context.CancelFunc
	done      chan struct{}

	// The resolved submission, retained so PATCH can seed an incremental
	// session from it; ref is the session lineage this job belongs to
	// (created lazily on the first PATCH, shared with every derived job).
	d    *bistpath.DFG
	mods map[string]string
	cfg  bistpath.Config
	ref  *sessionRef

	mu       sync.Mutex
	status   Status
	result   []byte
	errMsg   string
	errPhase string
	cacheHit bool
}

// rootID names the job's session lineage: the originally POSTed job.
func (j *job) rootID() string {
	if j.root != "" {
		return j.root
	}
	return j.id
}

// jobJSON is the wire form of a job's status. Result is the raw
// Result.JSON() document (done jobs only, and only where the handler
// asks for it).
type jobJSON struct {
	ID     string `json:"id"`
	Design string `json:"design"`
	Status Status `json:"status"`
	// Root names the originally POSTed job of this session lineage; set
	// only on jobs derived via PATCH /v1/jobs/{id}.
	Root     string          `json:"root,omitempty"`
	CacheHit bool            `json:"cache_hit,omitempty"`
	Error    string          `json:"error,omitempty"`
	Phase    string          `json:"phase,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// view snapshots the job for serialization.
func (j *job) view(includeResult bool) jobJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobJSON{
		ID:       j.id,
		Design:   j.design,
		Status:   j.status,
		Root:     j.root,
		CacheHit: j.cacheHit,
		Error:    j.errMsg,
		Phase:    j.errPhase,
	}
	if includeResult && j.status == StatusDone {
		v.Result = json.RawMessage(j.result)
	}
	return v
}

// resultBytes returns the served result document and whether the job is
// done.
func (j *job) resultBytes() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusDone {
		return nil, false
	}
	return j.result, true
}

// manager owns every job record and multiplexes submissions onto the
// server's shared pool and cache. One goroutine per job carries it
// queued → running → terminal; drain stops admissions and then waits
// for (or cancels) the in-flight goroutines via wg.
type manager struct {
	srv *Server

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string       // insertion order, for eviction of old terminal jobs
	clients  map[string]int // non-terminal jobs per client key (quota accounting)
	draining bool
	wg       sync.WaitGroup
}

func newManager(s *Server) *manager {
	return &manager{srv: s, jobs: make(map[string]*job), clients: make(map[string]int)}
}

// admitLocked performs the shared admission step under m.mu: refuse
// while draining, enforce the per-client quota, then register the job
// and account it to its client. The caller publishes the queued event
// and starts the job goroutine after unlocking.
func (m *manager) admitLocked(j *job, client string) error {
	if m.draining {
		return &apiError{status: http.StatusServiceUnavailable, msg: "server is draining"}
	}
	if max := m.srv.opts.MaxJobsPerClient; max > 0 && client != "" && m.clients[client] >= max {
		expJobsQuotaRejected.Add(1)
		return &apiError{
			status:     http.StatusTooManyRequests,
			msg:        fmt.Sprintf("client has %d jobs in flight (limit %d); retry when one concludes", m.clients[client], max),
			retryAfter: 1,
		}
	}
	j.id = newID("j")
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	if client != "" {
		m.clients[client]++
	}
	m.wg.Add(1)
	return nil
}

// releaseClient returns one quota slot when a job goes terminal.
func (m *manager) releaseClient(key string) {
	if key == "" {
		return
	}
	m.mu.Lock()
	if m.clients[key] > 1 {
		m.clients[key]--
	} else {
		delete(m.clients, key)
	}
	m.mu.Unlock()
}

// submitRequest is the POST /v1/jobs body. Exactly one of Benchmark and
// DFG must be set; Modules and Config are optional.
type submitRequest struct {
	// Benchmark names a built-in DAC'95 design (see GET /v1/benchmarks).
	Benchmark string `json:"benchmark,omitempty"`
	// DFG is a design in the textual DFG format accepted by
	// bistpath.ParseDFG. It must already be scheduled.
	DFG string `json:"dfg,omitempty"`
	// Modules maps op names to module names (DFG submissions only; nil
	// selects automatic area-driven binding).
	Modules map[string]string `json:"modules,omitempty"`
	// Config overrides individual synthesis settings; omitted fields
	// take the bistpath.DefaultConfig() values, so a bare benchmark
	// submission matches `bistpath synth -bench NAME -json` exactly.
	Config *configRequest `json:"config,omitempty"`
}

type configRequest struct {
	Width            *int    `json:"width,omitempty"`
	Mode             *string `json:"mode,omitempty"` // "testable" | "traditional"
	Workers          *int    `json:"workers,omitempty"`
	MinimizeSessions *bool   `json:"minimize_sessions,omitempty"`
}

// resolve validates the submission synchronously and returns the design
// plus its config. Validation failures come back as 422 apiErrors
// carrying the validate-phase attribution, exactly as a SynthesisError
// from the pipeline's own validate phase would.
func (r *submitRequest) resolve() (*bistpath.DFG, map[string]string, bistpath.Config, error) {
	cfg := bistpath.DefaultConfig()
	var d *bistpath.DFG
	var mods map[string]string
	switch {
	case r.Benchmark != "" && r.DFG != "":
		return nil, nil, cfg, validationError("use either benchmark or dfg, not both")
	case r.Benchmark != "":
		var err error
		d, mods, err = bistpath.Benchmark(r.Benchmark)
		if err != nil {
			return nil, nil, cfg, validationError(err.Error())
		}
		if r.Modules != nil {
			return nil, nil, cfg, validationError("modules cannot override a benchmark's binding")
		}
	case r.DFG != "":
		var err error
		d, err = bistpath.ParseDFG(r.DFG)
		if err != nil {
			return nil, nil, cfg, validationError(err.Error())
		}
		if err := d.Validate(); err != nil {
			return nil, nil, cfg, validationError(err.Error())
		}
		mods = r.Modules
	default:
		return nil, nil, cfg, validationError("need benchmark or dfg")
	}
	if c := r.Config; c != nil {
		if c.Width != nil {
			if *c.Width < 1 || *c.Width > 64 {
				return nil, nil, cfg, validationError(fmt.Sprintf("width %d out of range [1,64]", *c.Width))
			}
			cfg.Width = *c.Width
		}
		if c.Mode != nil {
			switch *c.Mode {
			case "testable":
			case "traditional":
				cfg.Mode = bistpath.TraditionalHLS
			default:
				return nil, nil, cfg, validationError(fmt.Sprintf("unknown mode %q", *c.Mode))
			}
		}
		if c.Workers != nil {
			if *c.Workers < 0 || *c.Workers > 64 {
				return nil, nil, cfg, validationError(fmt.Sprintf("workers %d out of range [0,64]", *c.Workers))
			}
			cfg.Workers = *c.Workers
		}
		if c.MinimizeSessions != nil {
			cfg.MinimizeSessions = *c.MinimizeSessions
		}
	}
	return d, mods, cfg, nil
}

func validationError(msg string) error {
	return &apiError{status: http.StatusUnprocessableEntity, msg: msg,
		phase: bistpath.PhaseValidate.String()}
}

// submit admits one job: synchronous validation, registration, queued
// event, then a goroutine that carries it to a terminal state. It
// returns the job's view as admitted, taken before that goroutine can
// move it on. During a drain, submissions are refused with 503.
func (m *manager) submit(req submitRequest, client string) (jobJSON, error) {
	d, mods, cfg, err := req.resolve()
	if err != nil {
		return jobJSON{}, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		design:    d.Name(),
		clientKey: client,
		created:   time.Now(),
		hub:       newHub(),
		cancel:    cancel,
		done:      make(chan struct{}),
		status:    StatusQueued,
		d:         d,
		mods:      mods,
		cfg:       cfg,
	}

	m.mu.Lock()
	if err := m.admitLocked(j, client); err != nil {
		m.mu.Unlock()
		cancel()
		return jobJSON{}, err
	}
	m.mu.Unlock()

	expJobsSubmitted.Add(1)
	j.hub.publishLifecycle(string(StatusQueued), j.id, j.design, false)
	admitted := j.view(false)
	go m.run(ctx, j, d, mods, cfg)
	return admitted, nil
}

// run is the per-job goroutine: wait for a pool slot, synthesize on the
// server's handle (which attaches the shared cache) with the hub as
// observer, then conclude with exactly one terminal transition.
func (m *manager) run(ctx context.Context, j *job, d *bistpath.DFG, mods map[string]string, cfg bistpath.Config) {
	defer m.wg.Done()
	if err := m.srv.pool.Acquire(ctx); err != nil {
		m.finish(j, bistpath.BatchResult{Name: j.design, Err: err})
		return
	}
	cfg.Observer = j.hub.observe
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
		br = m.srv.synth.RunJob(ctx, bistpath.Job{Name: j.design, DFG: d, Modules: mods, Config: cfg})
	}()
	m.finish(j, br)
}

func (j *job) setStatus(s Status) {
	j.mu.Lock()
	j.status = s
	j.mu.Unlock()
}

// finish records the outcome and publishes the single terminal event.
// The per-job cancel func is always released here.
func (m *manager) finish(j *job, br bistpath.BatchResult) {
	defer j.cancel()
	j.mu.Lock()
	switch {
	case br.Err == nil:
		doc, err := br.Result.JSON()
		if err != nil {
			j.status = StatusFailed
			j.errMsg = fmt.Sprintf("encoding result: %v", err)
		} else {
			j.status = StatusDone
			j.result = doc
			j.cacheHit = br.Result.Stats.CacheHit
		}
	case errors.Is(br.Err, context.Canceled) || errors.Is(br.Err, context.DeadlineExceeded):
		j.status = StatusCanceled
		j.errMsg = br.Err.Error()
	default:
		j.status = StatusFailed
		j.errMsg = br.Err.Error()
		var se *bistpath.SynthesisError
		if errors.As(br.Err, &se) {
			j.errPhase = se.Phase.String()
		}
	}
	status, cacheHit, errMsg, errPhase := j.status, j.cacheHit, j.errMsg, j.errPhase
	j.mu.Unlock()
	close(j.done)
	m.releaseClient(j.clientKey)

	switch status {
	case StatusDone:
		expJobsDone.Add(1)
	case StatusCanceled:
		expJobsCanceled.Add(1)
	default:
		expJobsFailed.Add(1)
	}
	j.hub.publishTerminal(string(status), terminalJSON{
		ID:       j.id,
		Design:   j.design,
		Status:   status,
		CacheHit: cacheHit,
		Error:    errMsg,
		Phase:    errPhase,
	})
}

// terminalJSON is the data payload of a terminal SSE event.
type terminalJSON struct {
	ID       string `json:"id"`
	Design   string `json:"design"`
	Status   Status `json:"status"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`
	Phase    string `json:"phase,omitempty"`
}

// get returns a job by ID, or nil.
func (m *manager) get(id string) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// list snapshots every retained job, oldest first.
func (m *manager) list() []jobJSON {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j := m.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]jobJSON, len(jobs))
	for i, j := range jobs {
		out[i] = j.view(false)
	}
	return out
}

// evictLocked drops the oldest terminal jobs while the retention bound
// is exceeded. Transient jobs are skipped: a running synthesis is never
// evicted, so the map can transiently exceed MaxJobs under load.
func (m *manager) evictLocked() {
	max := m.srv.opts.MaxJobs
	if len(m.jobs) <= max {
		return
	}
	kept := m.order[:0]
	for i, id := range m.order {
		j := m.jobs[id]
		if j == nil {
			continue
		}
		if len(m.jobs) > max && terminalNow(j) {
			delete(m.jobs, id)
			expJobsEvicted.Add(1)
			continue
		}
		kept = append(kept, m.order[i])
	}
	m.order = kept
}

func terminalNow(j *job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.Terminal()
}

// startDrain stops admissions; queued and running jobs continue.
func (m *manager) startDrain() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
}

// wait blocks until every admitted job has reached a terminal state.
func (m *manager) wait() { m.wg.Wait() }

// cancelAll cancels every job context; running syntheses abort at the
// next phase boundary and conclude as canceled.
func (m *manager) cancelAll() {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
}
