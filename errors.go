package bistpath

import (
	"context"
	"errors"
	"fmt"

	"bistpath/internal/bist"
)

// Sentinel errors of the public API. They are wrapped with context at the
// failure site, so match them with errors.Is, not equality.
var (
	// ErrUnknownBenchmark is returned by Benchmark for a name that is
	// not one of the built-in DAC'95 designs.
	ErrUnknownBenchmark = errors.New("bistpath: unknown benchmark")

	// ErrUnscheduled is returned by synthesis when the DFG still has
	// unscheduled operations (control step 0). Run AutoSchedule or
	// AutoScheduleForce first.
	ErrUnscheduled = errors.New("bistpath: DFG has unscheduled operations")

	// ErrNoDFG is returned when there is no design to synthesize: a
	// nil *DFG (or a zero DFG) passed to any Synthesize entry point or
	// NewSession, or a batch Job submitted without a DFG.
	ErrNoDFG = errors.New("bistpath: job has no DFG")

	// ErrNoEmbedding is returned by synthesis when some module has no
	// BIST embedding at all (no register I-path reaches its ports) — the
	// one legitimate way a structurally valid design can be
	// unsynthesizable. Random-design sweeps match it to skip such
	// designs.
	ErrNoEmbedding = bist.ErrNoEmbedding

	// ErrCacheDir is returned by NewCache when the on-disk layer's
	// directory cannot be created or written. The in-memory layer never
	// fails; a Cache constructed without a Dir cannot return this.
	ErrCacheDir = errors.New("bistpath: cache directory unavailable")

	// ErrSessionClosed is returned by every mutator and Resynthesize call
	// on a Session whose Close has been called.
	ErrSessionClosed = errors.New("bistpath: session closed")

	// ErrBadObjective is returned by synthesis (in the validate phase)
	// for a malformed multi-objective configuration: an unknown
	// Config.Objective value, negative Weights or negative Power
	// entries. ParseObjective wraps it for unknown objective names.
	ErrBadObjective = errors.New("bistpath: invalid objective configuration")

	// ErrNoPareto is returned by Result.VerifyPareto on a Result that
	// does not carry a Pareto front (any objective other than
	// ParetoFront, or a cache-served copy).
	ErrNoPareto = errors.New("bistpath: result has no Pareto front")
)

// SynthesisError attributes a synthesis failure to the pipeline phase
// that produced it. It wraps the underlying cause, so both
// errors.As(err, *SynthesisError) and errors.Is against the cause work:
//
//	var se *bistpath.SynthesisError
//	if errors.As(err, &se) {
//	    log.Printf("%s failed in the %s phase: %v", se.Design, se.Phase, se.Err)
//	}
//
// Context cancellation is never wrapped: a cancelled run returns
// ctx.Err() itself.
type SynthesisError struct {
	Design string // DFG name
	Phase  Phase  // pipeline phase that failed
	Err    error  // underlying cause
}

func (e *SynthesisError) Error() string {
	return fmt.Sprintf("bistpath: %s: %s phase: %v", e.Design, e.Phase, e.Err)
}

func (e *SynthesisError) Unwrap() error { return e.Err }

// phaseError wraps err with phase attribution, passing context errors
// (and nil) through untouched so callers can compare against ctx.Err().
func phaseError(design string, p Phase, err error) error {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &SynthesisError{Design: design, Phase: p, Err: err}
}
