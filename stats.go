package bistpath

import (
	"expvar"
	"fmt"
	"strings"
	"time"
)

// Phase identifies one stage of the synthesis pipeline, in execution
// order. It labels phase timings in Stats, observer events, and the
// phase attribution of SynthesisError.
type Phase int

// The pipeline phases.
const (
	// PhaseValidate covers input checking: DFG structural validation,
	// schedule completeness and the module-binding consistency check.
	PhaseValidate Phase = iota
	// PhaseRegisterBind is the paper's register binder (or the
	// traditional baseline binder).
	PhaseRegisterBind
	// PhaseInterconnect is the minimum-connectivity interconnect binding.
	PhaseInterconnect
	// PhaseDatapath builds the structural data path from the bindings.
	PhaseDatapath
	// PhaseBISTSearch is the branch-and-bound BIST embedding search plus
	// session scheduling.
	PhaseBISTSearch
)

func (p Phase) String() string {
	switch p {
	case PhaseValidate:
		return "validate"
	case PhaseRegisterBind:
		return "register-bind"
	case PhaseInterconnect:
		return "interconnect"
	case PhaseDatapath:
		return "datapath"
	case PhaseBISTSearch:
		return "bist-search"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Stats records where one synthesis run spent its time and how hard the
// search layers worked. It lives on Result.Stats, deliberately outside
// the determinism contract of ReportText: the durations are wall times
// and vary run to run, while the counters are exact replays of the
// algorithms' work — for a sequential run (Config.Workers <= 1) every
// counter is deterministic, and under parallel search only SearchNodes,
// BoundPrunes and IncumbentUpdates may vary (bound propagation timing
// changes how much of the tree is cut). A phase reused from an earlier
// run (ReusedPhases) did no work in this run, so its counters read
// zero; a cache hit instead replays the populating run's Stats whole.
type Stats struct {
	// Wall times. Total covers the whole run including result assembly,
	// so the per-phase values sum to slightly less than Total.
	Total        time.Duration
	Validate     time.Duration
	RegisterBind time.Duration
	Interconnect time.Duration
	Datapath     time.Duration
	BISTSearch   time.Duration

	// BIST branch-and-bound effort.
	SearchNodes          int64 // search nodes expanded
	BoundPrunes          int64 // subtrees cut by the incumbent bound
	IncumbentUpdates     int64 // incumbent improvements taken
	EmbeddingsEnumerated int64 // candidate embeddings across all modules
	SearchWorkers        int   // effective worker count after clamping

	// Stochastic-search effort (Config.Search only; all zero/empty under
	// the default SearchExact, so existing Results are unchanged).
	// SearchStrategy records what the configured strategy resolved to —
	// "exact" or "stochastic" — and stays empty for a SearchExact config.
	SearchStrategy string
	Generations    int64              // genetic-search generations executed
	Evaluations    int64              // candidate cost evaluations (GA + annealing)
	BestCurve      []SearchCurvePoint // best-so-far cost after each incumbent improvement

	// Register binder effort (zero in traditional mode).
	Lemma2Checks  int64 // trial Lemma-2 evaluations during coloring
	CaseOverrides int64 // Case 1/2 diversions that changed the choice

	// Result-cache interaction, filled only when Config.Cache was set.
	// These are the one part of Stats deliberately excluded from
	// Result.JSON(): a cache hit replays the populating run's Stats so
	// its JSON stays byte-identical to the cold run, which a live
	// hit-count could never be. The per-run cache view therefore lives
	// on the Go struct only.
	CacheHit       bool  // this Result was served from Config.Cache
	CacheHits      int64 // cache hits observed by Config.Cache so far
	CacheMisses    int64 // cache misses (full syntheses) so far
	CacheEvictions int64 // in-memory entries evicted so far
	CacheBytes     int64 // in-memory bytes held after this run

	// Incremental re-synthesis view, filled only on Session.Resynthesize
	// results. Excluded from Result.JSON() for the same reason as the
	// cache view: an incremental run's JSON is byte-identical (stats
	// normalized) to the cold run's, which live reuse accounting could
	// never be.
	ReusedPhases       []string // phases reused from the previous run, pipeline order
	IncrementalSpeedup float64  // previous cold Total / this run's Total (0 until phases reuse)
}

// SearchCurvePoint is one incumbent improvement of the stochastic
// search: the best cost known after the given generation (generation 0
// is the seeded initial population).
type SearchCurvePoint struct {
	Generation int64 `json:"generation"`
	Cost       int   `json:"cost"`
}

// PhaseSum returns the sum of the per-phase wall times. It is at most
// Total (result assembly is not attributed to any phase).
func (s Stats) PhaseSum() time.Duration {
	return s.Validate + s.RegisterBind + s.Interconnect + s.Datapath + s.BISTSearch
}

// String renders a compact human-readable summary (the cmd tools' -stats
// format).
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  stats: total %v (validate %v, bind %v, interconnect %v, datapath %v, bist %v)\n",
		s.Total, s.Validate, s.RegisterBind, s.Interconnect, s.Datapath, s.BISTSearch)
	fmt.Fprintf(&sb, "    search: %d nodes, %d prunes, %d incumbents, %d embeddings, %d worker(s)\n",
		s.SearchNodes, s.BoundPrunes, s.IncumbentUpdates, s.EmbeddingsEnumerated, s.SearchWorkers)
	if s.SearchStrategy != "" {
		fmt.Fprintf(&sb, "    strategy: %s; %d generations, %d evaluations, %d curve points\n",
			s.SearchStrategy, s.Generations, s.Evaluations, len(s.BestCurve))
	}
	fmt.Fprintf(&sb, "    binder: %d Lemma-2 checks, %d case overrides\n",
		s.Lemma2Checks, s.CaseOverrides)
	if s.CacheHit || s.CacheHits+s.CacheMisses > 0 {
		served := "synthesized"
		if s.CacheHit {
			served = "served from cache"
		}
		fmt.Fprintf(&sb, "    cache: %s; %d hits, %d misses, %d evictions, %d bytes\n",
			served, s.CacheHits, s.CacheMisses, s.CacheEvictions, s.CacheBytes)
	}
	if len(s.ReusedPhases) > 0 {
		fmt.Fprintf(&sb, "    incremental: reused %s", strings.Join(s.ReusedPhases, ", "))
		if s.IncrementalSpeedup > 0 {
			fmt.Fprintf(&sb, " (%.1fx vs cold)", s.IncrementalSpeedup)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// EventKind distinguishes observer events.
type EventKind int

// Observer event kinds.
const (
	// PhaseStart fires when a pipeline phase begins.
	PhaseStart EventKind = iota
	// PhaseEnd fires when a pipeline phase completes (Elapsed is set).
	PhaseEnd
	// SearchProgress fires periodically from inside the BIST branch and
	// bound (SearchNodes is the cumulative node count so far). These
	// events come from search worker goroutines.
	SearchProgress
	// CacheHit fires once when Config.Cache serves the run instead of a
	// full synthesis. A memory-layer hit emits nothing else; a disk-layer
	// hit first runs the pipeline once, so every phase pair precedes it —
	// its PhaseBISTSearch pair spans the revalidated plan splice, not a
	// search.
	CacheHit
	// PanicRecovered fires once when the batch layer (SynthesizeAll,
	// Pool.Do, Synthesizer.RunJob) recovers a panic inside a job's
	// synthesis. It is the terminal event of that run: the panic unwound
	// past the pipeline, so no further phase events can follow, and
	// observers that stream progress (e.g. SSE subscribers) must not be
	// left waiting. Direct SynthesizeCtx calls do not recover panics and
	// never emit it.
	PanicRecovered
)

func (k EventKind) String() string {
	switch k {
	case PhaseStart:
		return "phase-start"
	case PhaseEnd:
		return "phase-end"
	case SearchProgress:
		return "search-progress"
	case CacheHit:
		return "cache-hit"
	case PanicRecovered:
		return "panic-recovered"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one structured observation of a synthesis run in flight,
// delivered to Config.Observer.
type Event struct {
	Design  string        // DFG name
	Kind    EventKind     // what happened
	Phase   Phase         // which pipeline phase
	Elapsed time.Duration // PhaseEnd: the phase's wall time
	// SearchNodes is the cumulative branch-and-bound node count
	// (SearchProgress events only).
	SearchNodes int64
}

// Observer receives structured progress events during synthesis. Set it
// on Config to watch a run; leave it nil for the zero-overhead default.
// PhaseStart/PhaseEnd events arrive on the synthesizing goroutine in
// pipeline order; SearchProgress events may arrive concurrently from
// several search workers, so an Observer must be safe for concurrent
// use. Observers must not block: they run inline with synthesis.
type Observer func(Event)

// Package-level cumulative counters, exported through expvar so a
// long-running process embedding the library is scrapeable (import
// net/http and expvar's /debug/vars handler does the rest; see the
// README's Observability section).
var (
	expSyntheses  = expvar.NewInt("bistpath.syntheses")
	expSynthErrs  = expvar.NewInt("bistpath.synthesis_errors")
	expSynthNanos = expvar.NewInt("bistpath.synthesis_nanos")
	expNodes      = expvar.NewInt("bistpath.search_nodes")
	expPrunes     = expvar.NewInt("bistpath.bound_prunes")
	expEmbeddings = expvar.NewInt("bistpath.embeddings_enumerated")
	expBatchJobs  = expvar.NewInt("bistpath.batch_jobs")

	// Result-cache counters, cumulative across every Cache in the
	// process. cache_bytes is a gauge (stores add, evictions subtract);
	// the rest only grow.
	expCacheHits      = expvar.NewInt("bistpath.cache_hits")
	expCacheMisses    = expvar.NewInt("bistpath.cache_misses")
	expCacheDiskHits  = expvar.NewInt("bistpath.cache_disk_hits")
	expCacheStores    = expvar.NewInt("bistpath.cache_stores")
	expCacheEvictions = expvar.NewInt("bistpath.cache_evictions")
	expCacheBytes     = expvar.NewInt("bistpath.cache_bytes")
)

// recordRun folds one completed pipeline pass into the cumulative expvar
// counters: every pass counts, disk-cache hits included, with the
// search effort it actually spent (none for a spliced plan).
func recordRun(s *Stats) {
	expSyntheses.Add(1)
	expSynthNanos.Add(int64(s.Total))
	expNodes.Add(s.SearchNodes)
	expPrunes.Add(s.BoundPrunes)
	expEmbeddings.Add(s.EmbeddingsEnumerated)
}
