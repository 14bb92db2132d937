package bistpath

import (
	"context"
	"time"
)

// Job is one synthesis request in a batch passed to SynthesizeAll.
type Job struct {
	// Name labels the job in its BatchResult; it defaults to the DFG
	// name. Distinct jobs may share a name (e.g. the same design at
	// several widths) — results are matched to jobs by position, never
	// by name.
	Name string
	// DFG is the scheduled data flow graph to synthesize. A nil DFG
	// fails that job with ErrNoDFG; the rest of the batch proceeds.
	// Synthesis treats the graph as read-only, so one DFG may safely
	// back several jobs of the same batch (e.g. a mode or width sweep).
	DFG *DFG
	// Modules maps op names to module names. A nil map selects
	// automatic area-driven module binding.
	Modules map[string]string
	// Config controls the run, exactly as in DFG.SynthesizeCtx.
	Config Config
}

// BatchOptions configures SynthesizeAll. To share one result cache
// across a batch, run it on a handle (New) whose Config.Cache is set:
// every job without a cache of its own inherits it, and duplicate jobs
// coalesce into a single synthesis.
type BatchOptions struct {
	// Workers bounds how many jobs are synthesized concurrently.
	// 0 (the default) uses runtime.GOMAXPROCS(0); 1 runs the batch
	// sequentially on the calling goroutine's pool worker.
	Workers int
}

// BatchResult is the outcome of one job. Exactly one of Result and Err
// is non-nil. Results are returned in job order regardless of worker
// count, and every field of Result except Stats is deterministic, so the
// batch's reports are byte-identical to a sequential run.
type BatchResult struct {
	Name   string
	Result *Result
	Err    error
	// Duration is the wall time the job spent on a pool worker (near
	// zero for jobs refused before starting, e.g. after cancellation).
	// Like Result.Stats it is timing-dependent and outside the
	// determinism contract.
	Duration time.Duration
}

// BatchStats summarizes how well SynthesizeAll kept its worker pool
// busy. All fields are timing-dependent.
type BatchStats struct {
	Workers int           // effective pool size after clamping
	Wall    time.Duration // batch wall time
	Busy    time.Duration // summed per-job durations across workers
}

// Utilization returns the fraction of the pool's capacity that was
// synthesizing, in (0, 1]: Busy / (Wall × Workers). A value well below 1
// on a saturated machine means the batch is limited by job granularity,
// not by the pool.
func (s BatchStats) Utilization() float64 {
	if s.Workers <= 0 || s.Wall <= 0 {
		return 0
	}
	u := float64(s.Busy) / (float64(s.Wall) * float64(s.Workers))
	if u > 1 {
		u = 1
	}
	return u
}

// SynthesizeAll synthesizes every job on a bounded worker pool and
// returns one BatchResult per job, in job order, plus the pool's
// utilization. The context cancels the batch: jobs not yet started fail
// with ctx.Err(), and jobs already running abort at the next synthesis
// phase boundary (the BIST branch and bound polls the context). A panic
// inside one job is recovered and degrades that single job to an error
// instead of killing the batch.
//
// SynthesizeAll is a thin wrapper over the package-default Synthesizer;
// use an explicit handle (New) to share a cache or bound the lifetime.
func SynthesizeAll(ctx context.Context, jobs []Job, opts BatchOptions) ([]BatchResult, BatchStats) {
	return defaultSynthesizer.SynthesizeAll(ctx, jobs, opts)
}

// Pool is a persistent, process-wide synthesis worker pool: a bounded
// set of slots that outlives any single batch. Where SynthesizeAll
// serves the one-shot "here are N jobs" shape, a Pool serves long-lived
// callers — most prominently the bistpathd service — that receive jobs
// over time and need every submission in the process to share one
// concurrency budget. Create one with Synthesizer.NewPool. A Pool is
// safe for concurrent use.
type Pool struct {
	sem     chan struct{}
	workers int
	synth   *Synthesizer // handle whose scratch arenas Do's jobs reuse
}

// Workers returns the pool's slot count.
func (p *Pool) Workers() int { return p.workers }

// Acquire blocks until a worker slot is free or ctx is done. On success
// the caller owns one slot and must Release it exactly once.
func (p *Pool) Acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by Acquire.
func (p *Pool) Release() { <-p.sem }

// Do runs one job on the pool with the batch execution semantics
// (panic recovery, cancellation, Duration accounting), blocking until a
// slot is free. A job refused by cancellation before acquiring a slot
// fails with ctx.Err().
func (p *Pool) Do(ctx context.Context, j Job) BatchResult {
	if err := p.Acquire(ctx); err != nil {
		return BatchResult{Name: jobName(j), Err: err}
	}
	defer p.Release()
	return p.synth.RunJob(ctx, j)
}

func jobName(j Job) string {
	if j.Name != "" {
		return j.Name
	}
	if j.DFG != nil && j.DFG.g != nil {
		return j.DFG.Name()
	}
	return ""
}

// notifyPanicRecovered delivers the terminal PanicRecovered event to an
// observer after a job panic. The observer itself may be what panicked,
// so a second panic here is swallowed — the job's error is already set
// and there is nobody better to tell.
func notifyPanicRecovered(obs Observer, design string) {
	if obs == nil {
		return
	}
	defer func() { _ = recover() }()
	obs(Event{Design: design, Kind: PanicRecovered})
}
