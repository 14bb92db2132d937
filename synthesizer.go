package bistpath

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bistpath/internal/bist"
	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
	"bistpath/internal/regassign"
)

// ErrSynthesizerClosed is returned by a Synthesizer whose Close has been
// called. Runs in flight when Close fires are cancelled and also fail
// with this error (unless the caller's own context was already done, in
// which case that context's error wins).
var ErrSynthesizerClosed = errors.New("bistpath: synthesizer closed")

// synthScratch bundles the reusable memory one synthesis run threads
// through the pipeline: the register binder's bitset graphs and the BIST
// optimizer's search-node arenas. A scratch serves one run at a time;
// the Synthesizer's freelist hands each concurrent run its own.
type synthScratch struct {
	bind *regassign.Scratch
	bist *bist.Scratch
}

func newSynthScratch() *synthScratch {
	return &synthScratch{bind: regassign.NewScratch(), bist: bist.NewScratch()}
}

// Synthesizer is a reusable synthesis handle: it owns the scratch arenas
// the pipeline's hot phases allocate from, the cache handle applied to
// runs that bring none of their own, and the worker pools bound to it
// via Synthesizer.NewPool. Reusing one handle across runs makes the
// steady-state pipeline essentially allocation-free — the first run
// warms the arenas, subsequent runs recycle them — while keeping every
// Result byte-identical to a fresh-handle run (the determinism tests
// assert exactly this).
//
// A Synthesizer is safe for concurrent use: concurrent runs draw
// distinct scratches from the freelist. The free functions
// (DFG.SynthesizeCtx, SynthesizeAll, RunJob) and NewPool are thin
// wrappers over a package-default handle, so ordinary callers get arena
// reuse without managing a handle; create an explicit one to control
// the default Config, share a Cache, or bound the handle's lifetime
// with Close.
type Synthesizer struct {
	cfg Config

	// baseCtx is the handle's lifetime. Close cancels every in-flight
	// run's context first and baseCtx last, so observing baseCtx done
	// implies the runs have already been told to stop.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	closed   bool
	free     []*synthScratch
	inflight map[int64]context.CancelFunc
	nextID   int64
	wg       sync.WaitGroup
}

// New creates a Synthesizer. cfg is the handle's default configuration:
// Synthesize uses it directly, and batch jobs without a Config.Cache of
// their own inherit cfg.Cache. Call Close when done to cancel in-flight
// runs and release the handle.
func New(cfg Config) *Synthesizer {
	ctx, cancel := context.WithCancel(context.Background())
	return &Synthesizer{
		cfg:      cfg,
		baseCtx:  ctx,
		cancel:   cancel,
		inflight: make(map[int64]context.CancelFunc),
	}
}

// Config returns the handle's default configuration.
func (s *Synthesizer) Config() Config { return s.cfg }

// Close cancels every run in flight, waits for them to unwind, and
// marks the handle closed: subsequent runs fail with
// ErrSynthesizerClosed. Close is idempotent; second and later calls
// return nil immediately.
func (s *Synthesizer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	cancels := make([]context.CancelFunc, 0, len(s.inflight))
	for _, c := range s.inflight {
		cancels = append(cancels, c)
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	s.cancel()
	s.wg.Wait()
	return nil
}

// Synthesize runs the full pipeline on one design with the handle's
// configuration. opToModule maps operation names to module names (nil =
// automatic area-driven module binding), exactly as in DFG.SynthesizeCtx.
func (s *Synthesizer) Synthesize(ctx context.Context, d *DFG, opToModule map[string]string) (*Result, error) {
	return s.synthesizeDFG(ctx, d, opToModule, s.cfg)
}

// SynthesizePareto runs the full pipeline with the handle's
// configuration under the ParetoFront objective: the Result carries the
// non-dominated plan set in Result.Pareto, exactly as
// DFG.SynthesizeParetoCtx.
func (s *Synthesizer) SynthesizePareto(ctx context.Context, d *DFG, opToModule map[string]string) (*Result, error) {
	cfg := s.cfg
	cfg.Objective = ParetoFront
	return s.synthesizeDFG(ctx, d, opToModule, cfg)
}

// SynthesizeAll synthesizes every job on a bounded worker pool drawing
// scratch arenas from this handle, with the exact semantics of the free
// SynthesizeAll (job-order results, prompt cancellation, per-job panic
// recovery).
func (s *Synthesizer) SynthesizeAll(ctx context.Context, jobs []Job, opts BatchOptions) []BatchResult {
	results, _ := s.SynthesizeAllStats(ctx, jobs, opts)
	return results
}

// SynthesizeAllStats is Synthesizer.SynthesizeAll plus pool-utilization
// accounting for the run.
func (s *Synthesizer) SynthesizeAllStats(ctx context.Context, jobs []Job, opts BatchOptions) ([]BatchResult, BatchStats) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]BatchResult, len(jobs))
	if len(jobs) == 0 {
		return results, BatchStats{}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	start := time.Now()
	var busy atomic.Int64
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				job := jobs[i]
				if job.Config.Cache == nil {
					job.Config.Cache = opts.Cache
				}
				results[i] = s.runJob(ctx, job)
				busy.Add(int64(results[i].Duration))
			}
		}()
	}
	// Feed job indices until done or cancelled; on cancellation the
	// remaining unstarted jobs fail promptly with ctx.Err().
	cancelled := -1
feed:
	for i := range jobs {
		select {
		case <-ctx.Done():
			cancelled = i
			break feed
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	if cancelled >= 0 {
		for i := cancelled; i < len(jobs); i++ {
			results[i] = BatchResult{Name: jobName(jobs[i]), Err: ctx.Err()}
		}
	}
	expBatchJobs.Add(int64(len(jobs)))
	return results, BatchStats{
		Workers: workers,
		Wall:    time.Since(start),
		Busy:    time.Duration(busy.Load()),
	}
}

// NewPool creates a worker pool whose Do runs jobs through this handle
// (0 or negative workers = runtime.GOMAXPROCS(0)).
func (s *Synthesizer) NewPool(workers int) *Pool {
	p := NewPool(workers)
	p.synth = s
	return p
}

// runJob is the per-job execution primitive behind RunJob, Pool.Do and
// the batch workers: RunJob's semantics (panic recovery, cancellation,
// Duration accounting) with this handle's scratch arenas and cache.
func (s *Synthesizer) runJob(ctx context.Context, j Job) (br BatchResult) {
	if ctx == nil {
		ctx = context.Background()
	}
	br.Name = jobName(j)
	start := time.Now()
	defer func() {
		br.Duration = time.Since(start)
		if r := recover(); r != nil {
			br.Result = nil
			br.Err = fmt.Errorf("bistpath: job %q panicked: %v", br.Name, r)
			notifyPanicRecovered(j.Config.Observer, br.Name)
		}
	}()
	if err := ctx.Err(); err != nil {
		br.Err = err
		return br
	}
	cfg := j.Config
	if cfg.Cache == nil {
		cfg.Cache = s.cfg.Cache
	}
	br.Result, br.Err = s.synthesizeDFG(ctx, j.DFG, j.Modules, cfg)
	return br
}

// synthesizeDFG resolves the module binding and runs the pipeline with a
// scratch from the handle's freelist. It is the single core path every
// public entry point funnels through, so it is also where a missing
// design (a nil *DFG, or a zero DFG not built by NewDFG, ParseDFG or
// Compile) fails with ErrNoDFG.
func (s *Synthesizer) synthesizeDFG(ctx context.Context, d *DFG, opToModule map[string]string, cfg Config) (*Result, error) {
	if d == nil || d.g == nil {
		return nil, ErrNoDFG
	}
	// Catch unscheduled graphs before module binding so both the explicit
	// and automatic paths fail with ErrUnscheduled rather than a
	// binder-specific message.
	for _, o := range d.g.Ops() {
		if o.Step == 0 {
			return nil, phaseError(d.g.Name, PhaseValidate,
				fmt.Errorf("%w: op %q", ErrUnscheduled, o.Name))
		}
	}
	mb, err := d.moduleBinding(opToModule)
	if err != nil {
		return nil, phaseError(d.g.Name, PhaseValidate, err)
	}
	return s.run(ctx, d.g, mb, cfg)
}

// run executes one synthesis under the handle's lifetime: it registers
// the run's cancel so Close can abort it at its next context poll and
// wait for it to unwind, and loans the run a scratch.
func (s *Synthesizer) run(ctx context.Context, g *dfg.Graph, mb *modassign.Binding, cfg Config) (*Result, error) {
	return s.runWith(ctx, func(ctx context.Context, sc *synthScratch) (*Result, error) {
		return synthesize(ctx, g, mb, cfg, sc)
	})
}

// runWith is run generalized over the pipeline invocation: the lifetime
// bookkeeping (inflight cancel registration, scratch loan, closed-handle
// error mapping) around an arbitrary do. Session.Resynthesize uses it to
// call synthesizePipeline directly with its reuse/capture attachments
// while still honoring Close.
func (s *Synthesizer) runWith(ctx context.Context, do func(context.Context, *synthScratch) (*Result, error)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	caller := ctx
	ctx, cancel := context.WithCancel(ctx)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, ErrSynthesizerClosed
	}
	s.wg.Add(1)
	id := s.nextID
	s.nextID++
	s.inflight[id] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, id)
		s.mu.Unlock()
		cancel()
		s.wg.Done()
	}()

	sc := s.getScratch()
	res, err := do(ctx, sc)
	s.putScratch(sc)
	if err != nil && isContextError(err) && caller.Err() == nil {
		// The run was aborted by Close, not by the caller: report the
		// closure rather than a bare context error. closed is set before
		// Close cancels anything, so this read cannot race ahead of the
		// cancellation that aborted us.
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil, ErrSynthesizerClosed
		}
	}
	return res, err
}

func (s *Synthesizer) getScratch() *synthScratch {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		sc := s.free[n-1]
		s.free = s.free[:n-1]
		return sc
	}
	return newSynthScratch()
}

func (s *Synthesizer) putScratch(sc *synthScratch) {
	s.mu.Lock()
	s.free = append(s.free, sc)
	s.mu.Unlock()
}

// defaultSynthesizer backs the free functions and NewPool, so every
// caller — including the bistpathd daemon, whose jobs funnel through
// RunJob — amortizes pipeline allocations across runs without managing
// a handle. It is never closed.
var defaultSynthesizer = New(DefaultConfig())
