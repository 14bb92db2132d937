package bistpath

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestCache builds an in-memory-only cache, failing the test on error.
func newTestCache(t testing.TB, opts CacheOptions) *Cache {
	t.Helper()
	c, err := NewCache(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cachedHandle opens a Synthesizer whose Config.Cache is c, closed when
// the test ends.
func cachedHandle(t testing.TB, c *Cache) *Synthesizer {
	cfg := DefaultConfig()
	cfg.Cache = c
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

// synthCached synthesizes one benchmark through the given cache.
func synthCached(t testing.TB, c *Cache, name string, cfg Config) *Result {
	t.Helper()
	d, mods, err := Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = c
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The headline guarantee: a cache hit's JSON is byte-identical to the
// cold run that populated the entry, for both the memory and disk
// layers, and the report text matches too.
func TestCacheHitJSONByteIdentical(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(t, CacheOptions{Dir: dir})
	for _, name := range BenchmarkNames() {
		cold := synthCached(t, c, name, DefaultConfig())
		coldJSON, err := cold.JSON()
		if err != nil {
			t.Fatal(err)
		}

		warm := synthCached(t, c, name, DefaultConfig())
		if !warm.Stats.CacheHit {
			t.Fatalf("%s: second run not served from cache", name)
		}
		warmJSON, err := warm.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(coldJSON, warmJSON) {
			t.Errorf("%s: memory hit JSON differs from cold run", name)
		}
		if cold.ReportText() != warm.ReportText() {
			t.Errorf("%s: memory hit report differs from cold run", name)
		}

		// A fresh cache over the same directory has an empty memory
		// layer, so this exercises the disk reconstruction path.
		fresh := newTestCache(t, CacheOptions{Dir: dir})
		disk := synthCached(t, fresh, name, DefaultConfig())
		if !disk.Stats.CacheHit {
			t.Fatalf("%s: fresh cache did not hit the disk layer", name)
		}
		if st := fresh.Stats(); st.DiskHits != 1 {
			t.Fatalf("%s: disk hits = %d, want 1", name, st.DiskHits)
		}
		diskJSON, err := disk.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(coldJSON, diskJSON) {
			t.Errorf("%s: disk hit JSON differs from cold run", name)
		}
	}
}

// Semantic Config fields must change the key (miss); Workers and
// Observer must not (hit) — the determinism contract guarantees they
// cannot change the Result.
func TestCacheKeySensitivity(t *testing.T) {
	c := newTestCache(t, CacheOptions{})
	base := DefaultConfig()
	synthCached(t, c, "ex1", base)
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("cold run: misses = %d, want 1", st.Misses)
	}

	// Non-semantic knobs: same key, served from memory.
	workers := base
	workers.Workers = 7
	if res := synthCached(t, c, "ex1", workers); !res.Stats.CacheHit {
		t.Error("changing Workers must not change the cache key")
	}
	observed := base
	observed.Observer = func(Event) {}
	if res := synthCached(t, c, "ex1", observed); !res.Stats.CacheHit {
		t.Error("changing Observer must not change the cache key")
	}
	if st := c.Stats(); st.Misses != 1 || st.MemoryHits != 2 {
		t.Fatalf("after non-semantic runs: %+v", st)
	}

	// Semantic inputs, of the config or the design: every one must miss.
	semantic := []struct {
		name string
		edit func(*DFG, *Config)
	}{
		{"width", func(_ *DFG, c *Config) { c.Width = 16 }},
		{"mode", func(_ *DFG, c *Config) { c.Mode = TraditionalHLS }},
		{"minimize sessions", func(_ *DFG, c *Config) { c.MinimizeSessions = true }},
		{"avoid CBILBO", func(_ *DFG, c *Config) { c.AvoidCBILBO = false }},
		{"sharing", func(_ *DFG, c *Config) { c.Sharing = false }},
		{"step edit", func(d *DFG, _ *Config) { d.g.Op("mul2").Step = 5 }},
		{"search", func(_ *DFG, c *Config) { c.Search, c.Seed = SearchStochastic, 3 }},
	}
	for _, tc := range semantic {
		d, mods, err := Benchmark("ex1")
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		tc.edit(d, &cfg)
		cfg.Cache = c
		res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Stats.CacheHit {
			t.Errorf("%s did not change the cache key", tc.name)
		}
	}
	if st := c.Stats(); st.Misses != int64(1+len(semantic)) {
		t.Fatalf("after semantic runs: %+v", st)
	}
}

// The multi-objective knobs are semantic: a weighted run must never be
// served a cached pure-area result, different weight or power profiles
// must occupy different entries — while the key of every area-only
// config stays byte-identical to earlier releases (its misses here would
// otherwise double).
func TestCacheKeyObjectiveSensitivity(t *testing.T) {
	c := newTestCache(t, CacheOptions{})
	synthCached(t, c, "ex1", DefaultConfig())

	weighted := DefaultConfig()
	weighted.Objective = WeightedSum
	if res := synthCached(t, c, "ex1", weighted); res.Stats.CacheHit {
		t.Fatal("weighted run served the cached pure-area result")
	}

	heavier := weighted
	heavier.Weights = Weights{Area: 1, TestTime: 100, PeakPower: 1}
	if res := synthCached(t, c, "ex1", heavier); res.Stats.CacheHit {
		t.Error("different weights shared a cache entry")
	}

	powered := weighted
	powered.Power = map[string]int{"m1": 3}
	if res := synthCached(t, c, "ex1", powered); res.Stats.CacheHit {
		t.Error("a power override shared a cache entry with the default model")
	}

	if st := c.Stats(); st.Misses != 4 {
		t.Fatalf("distinct objective configs produced %d misses, want 4", st.Misses)
	}

	// A repeated weighted run hits its own entry and replays the cost
	// vector byte-for-byte.
	cold := synthCached(t, c, "ex1", weighted)
	if cold.Stats.CacheHit != true {
		t.Fatal("repeated weighted run missed")
	}
	coldJSON, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	again := synthCached(t, c, "ex1", weighted)
	warmJSON, err := again.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Error("weighted cache hit JSON differs across hits")
	}
	if cold.Cost == nil || again.Cost == nil || *cold.Cost != *again.Cost {
		t.Errorf("weighted cache hit cost %v differs from %v", again.Cost, cold.Cost)
	}
}

// Pareto runs bypass the cache entirely: an entry stores a single plan,
// not a front, so serving one would silently drop the front.
func TestCacheParetoBypass(t *testing.T) {
	c := newTestCache(t, CacheOptions{})
	cfg := DefaultConfig()
	cfg.Objective = ParetoFront
	first := synthCached(t, c, "ex1", cfg)
	second := synthCached(t, c, "ex1", cfg)
	if first.Stats.CacheHit || second.Stats.CacheHit {
		t.Fatal("a Pareto run was served from the cache")
	}
	if st := c.Stats(); st.Misses != 0 || st.MemoryHits != 0 {
		t.Fatalf("Pareto runs touched the cache: %+v", st)
	}
	if len(second.Pareto) == 0 || len(second.Pareto) != len(first.Pareto) {
		t.Fatalf("bypassed runs disagree on the front: %d vs %d points",
			len(first.Pareto), len(second.Pareto))
	}
}

// The DFG text format omits port-input marks, so the key must carry
// them separately: two otherwise identical designs differing only in
// MarkPortInput must occupy different entries.
func TestCacheKeyPortMarks(t *testing.T) {
	build := func(port bool) *DFG {
		d := NewDFG("pkey")
		if err := d.AddInput("a", "b"); err != nil {
			t.Fatal(err)
		}
		if err := d.AddOp("o1", "+", 1, "x", "a", "b"); err != nil {
			t.Fatal(err)
		}
		if err := d.MarkOutput("x"); err != nil {
			t.Fatal(err)
		}
		if port {
			if err := d.MarkPortInput("a"); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	c := newTestCache(t, CacheOptions{})
	cfg := DefaultConfig()
	cfg.Cache = c
	for _, port := range []bool{false, true} {
		if _, err := build(port).SynthesizeCtx(context.Background(), nil, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("port-marked and unmarked designs shared a key: %+v", st)
	}
}

// Under a byte budget too small for two entries, storing the second
// evicts the first, and re-requesting the first is a miss again.
func TestCacheEvictionUnderTightBudget(t *testing.T) {
	// Learn both entries' footprints, then budget for one byte less
	// than the pair: each fits alone, never both.
	probe := newTestCache(t, CacheOptions{})
	f1 := resultFootprint(synthCached(t, probe, "ex1", DefaultConfig()))
	f2 := resultFootprint(synthCached(t, probe, "ex2", DefaultConfig()))

	c := newTestCache(t, CacheOptions{MaxBytes: f1 + f2 - 1})
	synthCached(t, c, "ex1", DefaultConfig())
	synthCached(t, c, "ex2", DefaultConfig())
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", f1+f2-1, st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("accounted bytes exceed the budget: %+v", st)
	}
	if r := synthCached(t, c, "ex1", DefaultConfig()); r.Stats.CacheHit {
		t.Fatal("evicted entry served as a hit")
	}
}

// The budget is one pool: an entry is refused only when it alone
// exceeds MaxBytes, so a Result well inside the budget is kept and the
// repeat request is a memory hit.
func TestCacheKeepsEntryThatFitsBudget(t *testing.T) {
	probe := newTestCache(t, CacheOptions{})
	size := resultFootprint(synthCached(t, probe, "paulin", DefaultConfig()))

	c := newTestCache(t, CacheOptions{MaxBytes: 2 * size})
	synthCached(t, c, "paulin", DefaultConfig())
	if r := synthCached(t, c, "paulin", DefaultConfig()); !r.Stats.CacheHit {
		st := c.Stats()
		t.Fatalf("a %d-byte entry under a %d-byte budget was not kept: %d misses, %d bytes",
			size, 2*size, st.Misses, st.Bytes)
	}
	if st := c.Stats(); st.MemoryHits != 1 || st.Misses != 1 || st.Bytes != size {
		t.Fatalf("stats = %+v; want 1 memory hit, 1 miss, %d bytes", st, size)
	}
}

// A storm of concurrent identical requests coalesces onto exactly one
// synthesis. Run under -race this also proves the cache's locking.
func TestCacheConcurrentStorm(t *testing.T) {
	c := newTestCache(t, CacheOptions{})
	d, mods, err := Benchmark("paulin")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cache = c
	const n = 24
	var wg sync.WaitGroup
	var hits atomic.Int64
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
			if err != nil {
				errs <- err
				return
			}
			if res.Stats.CacheHit {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (storm must coalesce)", st.Misses)
	}
	if got := hits.Load(); got != n-1 {
		t.Fatalf("hits = %d, want %d", got, n-1)
	}
}

// A caller whose memory probe misses just before another flight stores
// its key can reach the singleflight after that flight has ended, and so
// lead a flight of its own: the race behind TestCacheConcurrentStorm's
// occasional second miss. Replayed deterministically by calling the
// leader once the key is stored, it must serve the stored Result from
// memory rather than synthesize again.
func TestCacheLeaderServesStoredResult(t *testing.T) {
	c := newTestCache(t, CacheOptions{})
	d, mods, err := Benchmark("paulin")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cache = c
	if _, err := d.SynthesizeCtx(context.Background(), mods, cfg); err != nil {
		t.Fatal(err)
	}
	mb, err := d.moduleBinding(mods)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(d.g, mb, cfg)
	stored, ok := c.mem.Get(key)
	if !ok {
		t.Fatal("the first synthesis stored nothing under its key")
	}
	v, err := c.lead(context.Background(), d.g, mb, cfg, key, newSynthScratch())
	if err != nil {
		t.Fatal(err)
	}
	if out := v.(flightOutcome); out.res != stored.(*Result) || !out.hit {
		t.Fatalf("leader returned a fresh synthesis (hit=%v), not the stored Result", out.hit)
	}
	if st := c.Stats(); st.Misses != 1 || st.MemoryHits != 1 {
		t.Fatalf("misses = %d, memory hits = %d; want 1 and 1", st.Misses, st.MemoryHits)
	}
}

// A handle's Config.Cache shares one cache across a batch: duplicate
// jobs coalesce and the results stay byte-identical to an uncached batch.
func TestCacheBatchCoalesce(t *testing.T) {
	d, mods, err := Benchmark("tseng1")
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Name: "dup", DFG: d, Modules: mods, Config: DefaultConfig()}
	}
	c := newTestCache(t, CacheOptions{})
	results, _ := cachedHandle(t, c).SynthesizeAll(context.Background(), jobs, BatchOptions{})
	var ref []byte
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("job %d: %v", i, br.Err)
		}
		doc, err := br.Result.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = doc
		} else if !bytes.Equal(ref, doc) {
			t.Fatalf("job %d: JSON differs across duplicate jobs", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("batch of %d duplicates: %+v", n, st)
	}

	// A job carrying its own cache is not overridden by the handle's.
	own := newTestCache(t, CacheOptions{})
	cfg := DefaultConfig()
	cfg.Cache = own
	other := newTestCache(t, CacheOptions{})
	if br := cachedHandle(t, other).RunJob(context.Background(), Job{Name: "own", DFG: d, Modules: mods, Config: cfg}); br.Err != nil {
		t.Fatal(br.Err)
	}
	if st := own.Stats(); st.Misses != 1 {
		t.Fatalf("job's own cache unused: %+v", st)
	}
	if st := other.Stats(); st.Misses != 0 {
		t.Fatalf("batch cache overrode the job's: %+v", st)
	}
}

// Corrupting the persisted entry must degrade to a full synthesis —
// never an error — and the slot heals on the rewrite.
func TestCacheDiskCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(t, CacheOptions{Dir: dir})
	cold := synthCached(t, c, "ex2", DefaultConfig())
	coldJSON, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}

	var entries []string
	err = filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(p) == ".entry" {
			entries = append(entries, p)
		}
		return err
	})
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one persisted entry, got %d (%v)", len(entries), err)
	}
	if err := os.WriteFile(entries[0], []byte("scribble"), 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := newTestCache(t, CacheOptions{Dir: dir})
	res := synthCached(t, fresh, "ex2", DefaultConfig())
	if res.Stats.CacheHit {
		t.Fatal("corrupt entry served as a hit")
	}
	gotJSON, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripStats(t, coldJSON), stripStats(t, gotJSON)) {
		t.Fatal("fallback synthesis diverged from the original")
	}
	// The rewrite healed the slot: the next fresh cache hits disk again.
	healed := newTestCache(t, CacheOptions{Dir: dir})
	if res := synthCached(t, healed, "ex2", DefaultConfig()); !res.Stats.CacheHit {
		t.Fatal("slot not healed after fallback rewrite")
	}
}

// phaseLog records an observer's phase and cache-hit events as
// "kind phase" strings, in order.
func phaseLog(cfg *Config) *[]string {
	var log []string
	var mu sync.Mutex
	cfg.Observer = func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e.Kind {
		case PhaseStart, PhaseEnd:
			log = append(log, e.Kind.String()+" "+e.Phase.String())
		case CacheHit:
			log = append(log, e.Kind.String())
		}
	}
	return &log
}

// A decodable but stale disk entry (another design's plan under this
// design's key) costs one pipeline pass: the plan fails revalidation,
// the search runs in the same pass, the run counts as a miss, and the
// rewrite heals the slot.
func TestCacheStaleEntrySinglePass(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(t, CacheOptions{Dir: dir})
	ex2, ex2mods, err := Benchmark("ex2")
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := ex2.SynthesizeCtx(context.Background(), ex2mods, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeCacheEntry(foreign)
	if err != nil {
		t.Fatal(err)
	}
	d, mods, err := Benchmark("ex1")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := d.moduleBinding(mods)
	if err != nil {
		t.Fatal(err)
	}
	c.disk.Put(cacheKey(d.g, mb, DefaultConfig()), payload)

	cold, err := d.SynthesizeCtx(context.Background(), mods, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	log := phaseLog(&cfg)
	cfg.Cache = c
	res, err := d.SynthesizeCtx(context.Background(), mods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripStatsJSON(t, res), stripStatsJSON(t, cold); got != want {
		t.Fatalf("stale-entry run diverged from a cold run:\n%s\nvs\n%s", got, want)
	}
	starts := map[string]int{}
	for _, e := range *log {
		if strings.HasPrefix(e, PhaseStart.String()) {
			starts[e]++
		}
	}
	for _, ph := range allPhaseNames() {
		if n := starts[PhaseStart.String()+" "+ph]; n != 1 {
			t.Errorf("phase %s started %d times, want 1", ph, n)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Errorf("stale entry: %d misses, %d disk hits; want 1 and 0", st.Misses, st.DiskHits)
	}
	if healed := synthCached(t, newTestCache(t, CacheOptions{Dir: dir}), "ex1", DefaultConfig()); !healed.Stats.CacheHit {
		t.Error("stale slot not healed by the rewrite")
	}
}

// A disk hit runs the whole pipeline once — every phase, the spliced
// BIST search included, emits its start/end pair — and then CacheHit.
func TestCacheDiskHitEventSequence(t *testing.T) {
	dir := t.TempDir()
	synthCached(t, newTestCache(t, CacheOptions{Dir: dir}), "ex1", DefaultConfig())
	cfg := DefaultConfig()
	log := phaseLog(&cfg)
	res := synthCached(t, newTestCache(t, CacheOptions{Dir: dir}), "ex1", cfg)
	if !res.Stats.CacheHit {
		t.Fatal("fresh cache did not hit the disk layer")
	}
	var want []string
	for _, ph := range allPhaseNames() {
		want = append(want, PhaseStart.String()+" "+ph, PhaseEnd.String()+" "+ph)
	}
	want = append(want, CacheHit.String())
	if !slices.Equal(*log, want) {
		t.Errorf("disk-hit events:\n%v\nwant\n%v", *log, want)
	}
}

// A cache-served Result must hold up to the full differential
// verification harness (plan invariants, functional cross-check,
// exhaustive oracles), for both the memory and disk hit paths.
func TestCacheServedResultVerifies(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(t, CacheOptions{Dir: dir})
	synthCached(t, c, "ex1", DefaultConfig())

	mem := synthCached(t, c, "ex1", DefaultConfig())
	fresh := newTestCache(t, CacheOptions{Dir: dir})
	disk := synthCached(t, fresh, "ex1", DefaultConfig())
	for _, tc := range []struct {
		layer string
		res   *Result
	}{{"memory", mem}, {"disk", disk}} {
		if !tc.res.Stats.CacheHit {
			t.Fatalf("%s: not a cache hit", tc.layer)
		}
		rep, err := tc.res.Verify(context.Background(), VerifyOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.layer, err)
		}
		if !rep.OK() {
			t.Fatalf("%s: verification violations: %v", tc.layer, rep.Violations)
		}
	}
}

// Mutating a served Result's exported fields must not leak into the
// cached master or other callers.
func TestCacheServedResultIsPrivate(t *testing.T) {
	c := newTestCache(t, CacheOptions{})
	synthCached(t, c, "ex1", DefaultConfig())
	a := synthCached(t, c, "ex1", DefaultConfig())
	a.Registers[0].Name = "CLOBBERED"
	a.Registers[0].Vars[0] = "CLOBBERED"
	a.Modules[0].Ops[0] = "CLOBBERED"
	if len(a.Sessions) > 0 && len(a.Sessions[0]) > 0 {
		a.Sessions[0][0] = "CLOBBERED"
	}
	for k := range a.StyleCounts {
		a.StyleCounts[k] = -1
	}
	b := synthCached(t, c, "ex1", DefaultConfig())
	if b.Registers[0].Name == "CLOBBERED" || b.Registers[0].Vars[0] == "CLOBBERED" ||
		b.Modules[0].Ops[0] == "CLOBBERED" {
		t.Fatal("mutation of a served Result leaked into the cache")
	}
	for _, v := range b.StyleCounts {
		if v == -1 {
			t.Fatal("StyleCounts mutation leaked into the cache")
		}
	}
}

// The observer sees exactly one CacheHit event per hit, Stats.CacheHit
// marks the served Result without perturbing the JSON (covered by
// TestCacheHitJSONByteIdentical), and the cache's own counters are on
// Cache.Stats().
func TestCacheHitObserverAndStats(t *testing.T) {
	c := newTestCache(t, CacheOptions{})
	synthCached(t, c, "ex1", DefaultConfig())
	var hits atomic.Int64
	cfg := DefaultConfig()
	cfg.Observer = func(e Event) {
		if e.Kind == CacheHit {
			hits.Add(1)
			if e.Design != "ex1" {
				t.Errorf("CacheHit event for %q, want ex1", e.Design)
			}
		}
	}
	res := synthCached(t, c, "ex1", cfg)
	if hits.Load() != 1 {
		t.Fatalf("CacheHit events = %d, want 1", hits.Load())
	}
	if !res.Stats.CacheHit {
		t.Fatal("Stats.CacheHit not set on a hit")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Bytes <= 0 {
		t.Fatalf("cache stats = %+v, want 1 hit, 1 miss, bytes held", st)
	}
	line := res.Stats.String()
	if want := "served from cache"; !bytes.Contains([]byte(line), []byte(want)) {
		t.Fatalf("Stats.String() = %q, missing %q", line, want)
	}
}

// A warm-cache batch over the five paper benchmarks must be several
// times faster than the cold batch that populated it. The original bar
// was 10x; the arena-based synthesis core then made cold runs ~4x
// faster while a warm hit still pays fixed per-job costs (key hashing,
// Result cloning), so the ratio bar is 3x against the much faster cold
// baseline.
func TestCacheWarmBatchSpeedup(t *testing.T) {
	var jobs []Job
	for _, name := range BenchmarkNames() {
		d, mods, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Job{Name: name, DFG: d, Modules: mods, Config: DefaultConfig()})
	}
	s := cachedHandle(t, newTestCache(t, CacheOptions{}))
	opts := BatchOptions{Workers: 1}

	start := time.Now()
	cold, _ := s.SynthesizeAll(context.Background(), jobs, opts)
	for _, br := range cold {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
	}
	coldWall := time.Since(start)

	// Best of three warm passes: the point is the steady state, not a
	// scheduler hiccup on one pass.
	warm := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start = time.Now()
		rs, _ := s.SynthesizeAll(context.Background(), jobs, opts)
		for _, br := range rs {
			if br.Err != nil {
				t.Fatal(br.Err)
			}
			if !br.Result.Stats.CacheHit {
				t.Fatalf("%s: warm pass missed", br.Name)
			}
		}
		if d := time.Since(start); d < warm {
			warm = d
		}
	}
	if warm > coldWall/3 {
		t.Errorf("warm batch %v vs cold %v: less than the required 3x speedup", warm, coldWall)
	}
}

// stripStats removes the timing-dependent "stats" object so two
// independent syntheses can be compared on their deterministic fields.
func stripStats(t testing.TB, doc []byte) []byte {
	t.Helper()
	i := bytes.Index(doc, []byte(`"stats"`))
	if i < 0 {
		t.Fatal("no stats object in JSON")
	}
	return doc[:i]
}
