package bistpath

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"bistpath/internal/bist"
	"bistpath/internal/cache"
	"bistpath/internal/dfg"
	"bistpath/internal/modassign"
)

// cacheKeyVersion is folded into every cache key. It is bumped whenever
// the synthesis pipeline's semantics change in a way that can alter a
// Result for identical inputs, orphaning (never corrupting) entries
// produced by older code.
const cacheKeyVersion = 1

// cacheEntrySchema versions the on-disk entry payload layout. A payload
// with a different schema is a miss.
const cacheEntrySchema = 1

// CacheOptions configures NewCache. The zero value selects an
// in-memory-only cache with the default budget.
type CacheOptions struct {
	// MaxBytes bounds the in-memory layer's accounted footprint in
	// bytes (0 = 256 MiB). When the budget is exceeded, least recently
	// used entries are evicted; only an entry that alone exceeds it is
	// not kept.
	MaxBytes int64
	// Dir, when non-empty, adds a persistent on-disk layer rooted at
	// this directory. Disk entries are versioned and checksummed; a
	// corrupt or foreign entry is treated as a miss, never an error,
	// and disk write failures never fail a synthesis.
	Dir string
}

// CacheStats is a point-in-time snapshot of a Cache's activity.
type CacheStats struct {
	// Hits counts lookups served without re-running the BIST search:
	// in-memory hits, disk-layer hits and flights coalesced onto a
	// concurrent identical synthesis.
	Hits int64
	// Misses counts lookups that ran a full synthesis.
	Misses int64

	MemoryHits int64 // served straight from the in-memory layer
	DiskHits   int64 // reconstructed from the persistent layer
	Coalesced  int64 // joined a concurrent identical synthesis

	Entries   int   // live in-memory entries
	Bytes     int64 // accounted in-memory bytes
	MaxBytes  int64 // configured in-memory budget
	Evictions int64 // in-memory entries evicted under the byte budget

	DiskWrites int64 // entries persisted to the disk layer
	DiskErrors int64 // corrupt entries discarded + failed disk writes
}

// String renders the snapshot as the cmd tools' one-line summary.
func (s CacheStats) String() string {
	line := fmt.Sprintf("cache: %d hits (%d memory, %d disk, %d coalesced), %d misses, %d evictions, %d bytes",
		s.Hits, s.MemoryHits, s.DiskHits, s.Coalesced, s.Misses, s.Evictions, s.Bytes)
	if s.DiskWrites+s.DiskErrors > 0 {
		line += fmt.Sprintf(", disk: %d writes, %d errors", s.DiskWrites, s.DiskErrors)
	}
	return line
}

// Cache memoizes synthesis results across runs, keyed by a canonical
// fingerprint of the semantic inputs: the canonicalized DFG text
// (including port-input marks, which the text format omits), the
// resolved op-to-module binding, and every Config field that can affect
// the Result. Config.Observer and the inert Config.Workers are excluded
// — neither can change the Result — as is the Cache field itself.
//
// A hit returns a Result whose JSON() is byte-identical to the run that
// populated the entry: the stored Stats (wall times and search
// counters) are replayed verbatim, and the per-run cache view is kept
// in the Stats fields excluded from JSON. Concurrent lookups of the
// same key coalesce onto one synthesis (singleflight), so a batch full
// of duplicate jobs costs one search.
//
// A Cache is safe for concurrent use by any number of goroutines and
// may be shared across SynthesizeCtx calls, batches and designs. Served
// Results share immutable internal state with the cached master; the
// exported fields are deep-copied per caller.
type Cache struct {
	mem    *cache.Memory
	disk   *cache.Disk
	flight cache.Group

	memHits   atomic.Int64
	diskHits  atomic.Int64
	coalesced atomic.Int64
	misses    atomic.Int64
}

// NewCache creates a synthesis result cache. With CacheOptions.Dir set,
// the persistent layer is opened (and created) under that directory; a
// directory that cannot be created fails with an error wrapping
// ErrCacheDir.
func NewCache(opts CacheOptions) (*Cache, error) {
	c := &Cache{mem: cache.NewMemory(opts.MaxBytes)}
	if opts.Dir != "" {
		d, err := cache.NewDisk(opts.Dir)
		if err != nil {
			return nil, fmt.Errorf("%w %q: %v", ErrCacheDir, opts.Dir, err)
		}
		c.disk = d
	}
	return c, nil
}

// Stats snapshots the cache's counters and occupancy.
func (c *Cache) Stats() CacheStats {
	ms := c.mem.Stats()
	st := CacheStats{
		MemoryHits: c.memHits.Load(),
		DiskHits:   c.diskHits.Load(),
		Coalesced:  c.coalesced.Load(),
		Misses:     c.misses.Load(),
		Entries:    ms.Entries,
		Bytes:      ms.Bytes,
		MaxBytes:   ms.MaxBytes,
		Evictions:  ms.Evictions,
	}
	st.Hits = st.MemoryHits + st.DiskHits + st.Coalesced
	if c.disk != nil {
		ds := c.disk.Stats()
		st.DiskWrites = ds.Writes
		st.DiskErrors = ds.Errors
	}
	return st
}

// flightOutcome is what one singleflight execution publishes: the
// master Result and whether it was served without a synthesis (from the
// memory layer or recovered from the disk layer).
type flightOutcome struct {
	res *Result
	hit bool
}

// synthesize is the cache-enabled synthesis path: memory lookup, then a
// coalesced flight that probes the disk layer before paying for a full
// run. Callers always receive a private copy of the master Result.
func (c *Cache) synthesize(ctx context.Context, g *dfg.Graph, mb *modassign.Binding, cfg Config, sc *synthScratch) (*Result, error) {
	key := cacheKey(g, mb, cfg)
	for {
		if v, ok := c.mem.Get(key); ok {
			c.memHits.Add(1)
			expCacheHits.Add(1)
			return c.serve(v.(*Result), cfg, g.Name, true), nil
		}
		v, err, shared := c.flight.Do(ctx, key, func() (any, error) {
			return c.lead(ctx, g, mb, cfg, key, sc)
		})
		if err != nil {
			if shared && isContextError(err) && ctx.Err() == nil {
				// The flight's leader was cancelled, not us: retry (and
				// possibly lead this time).
				continue
			}
			return nil, err
		}
		out := v.(flightOutcome)
		hit := out.hit
		if shared {
			c.coalesced.Add(1)
			expCacheHits.Add(1)
			hit = true
		}
		return c.serve(out.res, cfg, g.Name, hit), nil
	}
}

// lead is the body of a flight for key. It re-probes the memory layer
// before filling: the probe in synthesize runs outside the flight, so a
// caller whose probe missed just before another flight stored key can
// reach Do after that flight has ended and lead a new one. It is then
// served the stored Result as a memory hit instead of synthesizing again.
func (c *Cache) lead(ctx context.Context, g *dfg.Graph, mb *modassign.Binding, cfg Config, key cache.Key, sc *synthScratch) (any, error) {
	if v, ok := c.mem.Get(key); ok {
		c.memHits.Add(1)
		expCacheHits.Add(1)
		return flightOutcome{res: v.(*Result), hit: true}, nil
	}
	return c.fill(ctx, g, mb, cfg, key, sc)
}

// fill runs as a flight leader: one pipeline pass, offered the disk
// entry stored under key (if any) as its prior. When the pass splices
// the entry's plan, the run is a disk hit and replays the entry's frozen
// Stats, keeping Result.JSON() byte-identical to the populating run;
// otherwise (no entry, or a stale one that failed revalidation) it is a
// miss whose fresh result overwrites the slot. Successful results are
// published to the in-memory layer before the flight resolves.
func (c *Cache) fill(ctx context.Context, g *dfg.Graph, mb *modassign.Binding, cfg Config, key cache.Key, sc *synthScratch) (any, error) {
	var prior *artifacts
	var frozen Stats
	if c.disk != nil {
		if payload, ok := c.disk.Get(key); ok {
			prior, frozen, _ = decodeCacheEntry(payload) // undecodable: a miss
		}
	}
	res, err := synthesizePipeline(ctx, g, mb, cfg, sc, prior)
	if err == nil && slices.Contains(res.Stats.ReusedPhases, PhaseBISTSearch.String()) {
		res.Stats = frozen
		c.diskHits.Add(1)
		expCacheHits.Add(1)
		expCacheDiskHits.Add(1)
		c.store(key, res)
		return flightOutcome{res: res, hit: true}, nil
	}
	c.misses.Add(1)
	expCacheMisses.Add(1)
	if err != nil {
		return nil, err
	}
	c.store(key, res)
	if c.disk != nil {
		if payload, err := encodeCacheEntry(res); err == nil {
			c.disk.Put(key, payload)
		}
	}
	return flightOutcome{res: res}, nil
}

// store publishes a master Result to the in-memory layer and folds the
// eviction and byte-accounting deltas into the expvar gauges.
func (c *Cache) store(key cache.Key, res *Result) {
	evicted, bytesDelta := c.mem.Put(key, res, resultFootprint(res))
	expCacheStores.Add(1)
	expCacheEvictions.Add(int64(evicted))
	expCacheBytes.Add(bytesDelta)
}

// serve hands a caller its private view of a master Result: exported
// fields deep-copied, the frozen Stats of the populating run replayed
// verbatim, and the JSON-excluded CacheHit set.
func (c *Cache) serve(master *Result, cfg Config, design string, hit bool) *Result {
	if hit && cfg.Observer != nil {
		cfg.Observer(Event{Design: design, Kind: CacheHit})
	}
	cp := master.clone()
	cp.Stats.CacheHit = hit
	return cp
}

func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// clone returns a copy of the Result whose exported fields are private
// to the caller. The unexported internals (data path, plan, module
// binding) are shared: they are immutable after synthesis and back the
// read-only query methods only.
func (r *Result) clone() *Result {
	cp := *r
	cp.Registers = make([]RegisterInfo, len(r.Registers))
	for i, reg := range r.Registers {
		reg.Vars = append([]string(nil), reg.Vars...)
		cp.Registers[i] = reg
	}
	cp.Modules = make([]ModuleInfo, len(r.Modules))
	for i, m := range r.Modules {
		m.Ops = append([]string(nil), m.Ops...)
		cp.Modules[i] = m
	}
	cp.Sessions = make([][]string, len(r.Sessions))
	for i, s := range r.Sessions {
		cp.Sessions[i] = append([]string(nil), s...)
	}
	cp.StyleCounts = make(map[string]int, len(r.StyleCounts))
	for k, v := range r.StyleCounts {
		cp.StyleCounts[k] = v
	}
	cp.BindingTrace = append([]string(nil), r.BindingTrace...)
	if r.Cost != nil {
		c := *r.Cost
		cp.Cost = &c
	}
	if r.Pareto != nil {
		cp.Pareto = make([]ParetoPoint, len(r.Pareto))
		for i, pt := range r.Pareto {
			counts := make(map[string]int, len(pt.StyleCounts))
			for k, v := range pt.StyleCounts {
				counts[k] = v
			}
			sessions := make([][]string, len(pt.Sessions))
			for j, s := range pt.Sessions {
				sessions[j] = append([]string(nil), s...)
			}
			pt.StyleCounts = counts
			pt.Sessions = sessions
			cp.Pareto[i] = pt
		}
	}
	return &cp
}

// resultFootprint estimates the bytes a cached Result pins, including
// the shared data path and plan. It only feeds the LRU's byte
// accounting, so a consistent estimate matters more than exactness.
func resultFootprint(r *Result) int64 {
	const (
		entryBase  = 1024
		perItem    = 64
		perString  = 16
		perMicroOp = 96
	)
	n := int64(entryBase)
	size := func(ss []string) {
		for _, s := range ss {
			n += perString + int64(len(s))
		}
	}
	for _, reg := range r.Registers {
		n += perItem + int64(len(reg.Name)+len(reg.Style))
		size(reg.Vars)
	}
	for _, m := range r.Modules {
		n += perItem + int64(len(m.Name)+len(m.Class)+len(m.Embedding))
		size(m.Ops)
	}
	for _, s := range r.Sessions {
		n += perItem
		size(s)
	}
	size(r.BindingTrace)
	if dp := r.dp; dp != nil {
		for _, reg := range dp.Regs {
			n += perItem + int64(len(reg.Name))
			size(reg.Vars)
			size(reg.Sources)
		}
		for _, m := range dp.Modules {
			n += perItem + int64(len(m.Name))
			size(m.Left)
			size(m.Right)
			size(m.Dests)
		}
		for _, st := range dp.Steps {
			n += int64(len(st.Ops))*perMicroOp + int64(len(st.Loads))*perItem
		}
	}
	if r.plan != nil {
		n += int64(len(r.plan.Embeddings)+len(r.plan.Styles)) * perItem
	}
	return n
}

// cacheKey computes the canonical content-addressed key for one
// synthesis request — the result cache's one notion of "same inputs"
// (a Session compares against its previous Result instead). Everything
// semantic goes in; Workers (read by nothing), Observer and Cache stay
// out. The DFG contributes its canonical text plus the port-input marks
// the text format omits; the module binding
// contributes a name-sorted inventory with sorted op lists, so the
// explicit map and the automatic binder hit the same entry whenever
// they resolve identically. The pre-image streams straight into the
// hash; TestCacheKeyPinned pins it byte for byte.
func cacheKey(g *dfg.Graph, mb *modassign.Binding, cfg Config) cache.Key {
	h := sha256.New()
	fmt.Fprintf(h, "bistpath-cache-key v%d schema%d\n", cacheKeyVersion, ResultSchemaVersion)
	fmt.Fprintf(h, "width %d\n", cfg.Width)
	fmt.Fprintf(h, "mode %s\n", cfg.Mode)
	fmt.Fprintf(h, "allowpadtpg %t\nminimizesessions %t\ntrace %t\n",
		cfg.AllowPadTPG, cfg.MinimizeSessions, cfg.Trace)
	fmt.Fprintf(h, "sharing %t\ncaseoverrides %t\navoidcbilbo %t\nweightedinterconnect %t\n",
		cfg.Sharing, cfg.CaseOverrides, cfg.AvoidCBILBO, cfg.WeightedInterconnect)
	// Multi-objective configuration joins the key only when it departs
	// from the default MinArea objective, so every key computed for an
	// area-only config is bit-identical to earlier releases — and a
	// weighted run can never be served a cached pure-area result.
	// (MinArea ignores Weights and Power entirely, so they are correctly
	// absent from its keys.)
	if cfg.Objective != MinArea {
		fmt.Fprintf(h, "objective %s\nweights %d %d %d\n",
			cfg.Objective, cfg.Weights.Area, cfg.Weights.TestTime, cfg.Weights.PeakPower)
		if len(cfg.Power) > 0 {
			names := make([]string, 0, len(cfg.Power))
			for n := range cfg.Power {
				names = append(names, n)
			}
			sort.Strings(names)
			io.WriteString(h, "power")
			for _, n := range names {
				fmt.Fprintf(h, " %s=%d", n, cfg.Power[n])
			}
			io.WriteString(h, "\n")
		}
	}
	// The search strategy joins the key the same way: only when it
	// departs from the default SearchExact, keeping every exact-config
	// key bit-identical to earlier releases. Seed and the budgets are
	// semantic for a stochastic run — different seeds legitimately cache
	// different plans. (TimeBudget-truncated runs fail reusablePlan and
	// never reach the cache.)
	if cfg.Search != SearchExact {
		fmt.Fprintf(h, "search %s\nseed %d\ngenerations %d\nbudget %d\n",
			cfg.Search, cfg.Seed, cfg.MaxGenerations, int64(cfg.TimeBudget))
	}
	io.WriteString(h, "modules\n")
	mods := append([]*modassign.Module(nil), mb.Modules...)
	sort.Slice(mods, func(i, j int) bool { return mods[i].Name < mods[j].Name })
	for _, m := range mods {
		kinds := make([]string, len(m.Class.Kinds))
		for i, k := range m.Class.Kinds {
			kinds[i] = string(k)
		}
		ops := append([]string(nil), m.Ops...)
		sort.Strings(ops)
		fmt.Fprintf(h, "%s %s [%s] %s\n", m.Name, m.Class.Name,
			strings.Join(kinds, ""), strings.Join(ops, " "))
	}
	var ports []string
	for _, v := range g.Vars() {
		if v.IsPort {
			ports = append(ports, v.Name)
		}
	}
	sort.Strings(ports)
	fmt.Fprintf(h, "ports %s\n", strings.Join(ports, " "))
	io.WriteString(h, "dfg\n")
	io.WriteString(h, g.Text())
	var k cache.Key
	h.Sum(k[:0])
	return k
}

// cacheEntryJSON is the persistent entry payload. Only the winning
// embeddings and the frozen stats are stored: styles, upgrade area and
// the session schedule are derived on load (bist.PlanFromEmbeddings),
// and the whole reconstruction is validated against the freshly rebuilt
// data path, so a stale or colliding entry degrades to a miss.
type cacheEntryJSON struct {
	Schema     int                           `json:"schema"`
	Design     string                        `json:"design"`
	Exact      bool                          `json:"exact"`
	Embeddings map[string]cacheEmbeddingJSON `json:"embeddings"`
	Stats      Stats                         `json:"stats"`
}

type cacheEmbeddingJSON struct {
	HeadL string `json:"head_l"`
	HeadR string `json:"head_r,omitempty"`
	Tail  string `json:"tail"`
}

// encodeCacheEntry serializes the parts of a completed Result the disk
// layer needs to reproduce it byte for byte.
func encodeCacheEntry(r *Result) ([]byte, error) {
	e := cacheEntryJSON{
		Schema:     cacheEntrySchema,
		Design:     r.Name,
		Exact:      r.plan.Exact,
		Embeddings: make(map[string]cacheEmbeddingJSON, len(r.plan.Embeddings)),
		Stats:      r.Stats,
	}
	for name, emb := range r.plan.Embeddings {
		e.Embeddings[name] = cacheEmbeddingJSON{HeadL: emb.HeadL, HeadR: emb.HeadR, Tail: emb.Tail}
	}
	return json.Marshal(e)
}

// decodeCacheEntry parses a disk payload into a pipeline prior — the
// persisted plan's embeddings, with no data path, since the cache key it
// was found under vouches for the structure — and the frozen Stats a
// disk hit replays.
func decodeCacheEntry(payload []byte) (*artifacts, Stats, error) {
	var e cacheEntryJSON
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, Stats{}, err
	}
	if e.Schema != cacheEntrySchema {
		return nil, Stats{}, fmt.Errorf("bistpath: cache entry schema %d, want %d", e.Schema, cacheEntrySchema)
	}
	embs := make(map[string]bist.Embedding, len(e.Embeddings))
	for name, emb := range e.Embeddings {
		embs[name] = bist.Embedding{Module: name, HeadL: emb.HeadL, HeadR: emb.HeadR, Tail: emb.Tail}
	}
	return &artifacts{plan: &bist.Plan{Embeddings: embs, Exact: e.Exact}}, e.Stats, nil
}
