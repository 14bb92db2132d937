// Package server implements the bistpathd synthesis service: an HTTP
// front end that turns the bistpath library into a multi-tenant daemon.
// Clients submit scheduled DFGs (or built-in benchmark names) as jobs,
// poll their status, stream live Config.Observer progress events over
// SSE, and fetch completed results as the exact Result.JSON() bytes the
// bistpath CLI prints — the cache's byte-identity property extends to
// the wire.
//
// Every submission in the process shares one bounded synthesis worker
// pool (bistpath.Pool) and one result cache, so identical concurrent
// submissions coalesce onto a single synthesis via the cache's
// singleflight and warm duplicates are served without re-searching.
//
// The handler stack layers panic recovery, request IDs, per-request
// timeouts and request body limits around a method-routed mux; Drain
// implements graceful shutdown (stop accepting, finish or cancel
// in-flight jobs, flush SSE streams).
package server

import (
	"context"
	"expvar"
	"net/http"
	"sync/atomic"
	"time"

	"bistpath"
)

// Defaults for the zero Options value.
const (
	DefaultMaxBody   = 1 << 20 // 1 MiB request body limit
	DefaultTimeout   = 15 * time.Second
	DefaultMaxJobs   = 1024
	DefaultHeartbeat = 15 * time.Second
)

// Options configures a Server. The zero value is a working server with
// no result cache.
type Options struct {
	// Workers bounds how many jobs synthesize concurrently across the
	// whole process (0 = GOMAXPROCS). Submissions beyond the bound
	// queue; they hold no worker until a slot frees up.
	Workers int
	// Cache, when non-nil, is attached to every job's Config, so
	// duplicate submissions coalesce (singleflight) and warm repeats are
	// served byte-identically to the populating run.
	Cache *bistpath.Cache
	// MaxBody caps the request body size in bytes (0 = DefaultMaxBody).
	// Oversized submissions are rejected with 413.
	MaxBody int64
	// Timeout bounds each non-streaming request (0 = DefaultTimeout).
	// The SSE endpoint is exempt: event streams live until the job's
	// terminal event or client disconnect.
	Timeout time.Duration
	// MaxJobs bounds how many job records are retained in memory
	// (0 = DefaultMaxJobs). When exceeded, the oldest completed jobs are
	// evicted; running jobs are never evicted.
	MaxJobs int
	// Heartbeat is the SSE keepalive comment interval (0 =
	// DefaultHeartbeat). Tests shorten it.
	Heartbeat time.Duration
	// MaxJobsPerClient, when > 0, bounds how many non-terminal jobs one
	// client (X-Client-ID header, falling back to the remote host) may
	// have in flight across POST /v1/jobs and PATCH /v1/jobs/{id}.
	// Submissions beyond the bound answer 429 with a Retry-After header.
	// 0 disables the quota.
	MaxJobsPerClient int
}

// Server is the bistpathd service core: a job manager over the shared
// pool and cache, plus the HTTP handler stack. Create one with New,
// mount Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	opts     Options
	synth    *bistpath.Synthesizer // runs every job: POST through pool, PATCH through sessions
	pool     *bistpath.Pool
	jobs     *manager
	handler  http.Handler
	draining atomic.Bool

	// testHook, when non-nil, runs on the job goroutine after the worker
	// slot is acquired and before synthesis; a non-nil return replaces
	// the synthesis outcome. Tests use it to hold jobs in flight.
	testHook func(ctx context.Context, design string) error
}

// New creates a Server. The shared worker pool and job manager are
// process-internal; callers only see the HTTP surface and Drain.
func New(opts Options) *Server {
	if opts.MaxBody <= 0 {
		opts.MaxBody = DefaultMaxBody
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = DefaultMaxJobs
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = DefaultHeartbeat
	}
	cfg := bistpath.DefaultConfig()
	cfg.Cache = opts.Cache
	s := &Server{opts: opts, synth: bistpath.New(cfg)}
	s.pool = s.synth.NewPool(opts.Workers)
	s.jobs = newManager(s)
	s.handler = s.buildHandler()
	return s
}

// Handler returns the fully wrapped HTTP handler (router + middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Service-level expvar counters, alongside the library's bistpath.*
// set; both are served by GET /metrics. sse_subscribers is a gauge,
// everything else only grows.
var (
	expJobsSubmitted     = expvar.NewInt("bistpathd.jobs_submitted")
	expJobsPatched       = expvar.NewInt("bistpathd.jobs_patched")
	expJobsQuotaRejected = expvar.NewInt("bistpathd.jobs_quota_rejected")
	expJobsDone          = expvar.NewInt("bistpathd.jobs_done")
	expJobsFailed        = expvar.NewInt("bistpathd.jobs_failed")
	expJobsCanceled      = expvar.NewInt("bistpathd.jobs_canceled")
	expJobsEvicted       = expvar.NewInt("bistpathd.jobs_evicted")
	expHandlerPanics     = expvar.NewInt("bistpathd.handler_panics")
	expSSESubscribers    = expvar.NewInt("bistpathd.sse_subscribers")
	expSSEDropped        = expvar.NewInt("bistpathd.sse_dropped_events")
)
