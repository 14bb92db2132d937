package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bistpath"
	"bistpath/internal/dfg"
	"bistpath/internal/server"
)

// The service-mix op shares, and the windows that shape its reuse.
const (
	patchShare    = 0.2 // PATCH the client's latest job with one set_step edit
	resubmitShare = 0.4 // resubmit one of the client's recent designs; the rest are new designs
	recentWindow  = 64  // resubmissions draw from the client's last recentWindow new designs
	// overheadOps is the prefix of each client's op sequence whose
	// designs define bist_overhead_pct, so the figure does not depend on
	// how many ops a run completes.
	overheadOps = 1024
	// serviceCacheBytes caps the server's result cache. The resubmission
	// working set is far smaller, so every resubmission stays a hit, and
	// the cap keeps peak memory independent of how many new designs a
	// faster server gets through.
	serviceCacheBytes = 8 << 20
	// serviceClients is the number of closed-loop clients. One op passes
	// through the client, the connection's handler and a pool slot in
	// turn; with one client per core those goroutines of every client
	// competed for the cores, and on a shared two-core machine ten runs of
	// the same code spread their p50 and p90 latency by 17-20%
	// (interquartile range over median), where one client spreads them by
	// 5%.
	serviceClients = 1
)

// svcRunner drives the bistpathd handler in process, behind an httptest
// server on loopback. Each client owns one keep-alive connection and runs
// its own op sequence in a closed loop.
type svcRunner struct {
	seed     int64
	srv      *server.Server
	ts       *httptest.Server
	cache    *bistpath.Cache
	cls      []*svcClient
	conns    atomic.Int64
	outs     *outputs
	dropped0 int64
}

type svcClient struct {
	hc     *http.Client
	base   string
	gen    *mixGen
	drawn  int    // ops drawn from gen, replayed by the check
	lastID string // the client's latest completed job, target of its next PATCH
	br     *bufio.Reader
}

// setupServiceMix starts the handler with the result cache on and a
// worker pool of one slot per core, and serviceClients clients. Each
// client warms its connection with one paper benchmark, a design no
// timed op submits.
func setupServiceMix(ctx context.Context, seed int64) (runner, error) {
	cache, err := bistpath.NewCache(bistpath.CacheOptions{MaxBytes: serviceCacheBytes})
	if err != nil {
		return nil, err
	}
	n := serviceClients
	r := &svcRunner{seed: seed, cache: cache, outs: newOutputs()}
	r.srv = server.New(server.Options{Workers: runtime.NumCPU(), Cache: cache})
	r.ts = httptest.NewUnstartedServer(r.srv.Handler())
	r.ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			r.conns.Add(1)
		}
	}
	r.ts.Start()
	paper := bistpath.BenchmarkNames()
	for c := 0; c < n; c++ {
		cl := &svcClient{
			hc: &http.Client{
				Timeout:   2 * time.Minute,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			},
			base: r.ts.URL,
			gen:  newMixGen(seed, c, n),
			br:   bufio.NewReaderSize(nil, 16<<10),
		}
		r.cls = append(r.cls, cl)
		body := []byte(fmt.Sprintf(`{"benchmark":%q}`, paper[c%len(paper)]))
		if _, err := cl.exchange(http.MethodPost, "/v1/jobs", body, nil, -1, classNew); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if r.dropped0, err = r.sseDropped(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *svcRunner) clients() int { return len(r.cls) }

func (r *svcRunner) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Drain(ctx)
	for _, cl := range r.cls {
		cl.hc.CloseIdleConnections()
	}
	r.ts.Close()
	return err
}

// do is one op: POST a design (or PATCH the latest job), read the job's
// SSE stream to its terminal frame, then GET its result.
func (r *svcRunner) do(ctx context.Context, c int, st *clientState, traced bool) {
	cl := r.cls[c]
	op, err := cl.gen.next()
	cl.drawn++
	var tr *tracer
	if traced {
		tr = st.tr
	}
	tr.startOp(len(st.samples), op.class)
	root := tr.begin("op", -1)
	t0 := time.Now()
	var out outcome
	if err == nil {
		method, path := http.MethodPost, "/v1/jobs"
		if op.class == classPatch {
			method, path = http.MethodPatch, "/v1/jobs/"+cl.lastID
		}
		out, err = cl.exchange(method, path, op.body, tr, root, op.class)
	}
	s := sample{lat: time.Since(t0), class: op.class, traced: tr != nil}
	tr.end(root)
	cnt := &st.cnt[op.class]
	cnt.non2xx += out.non2xx
	if err != nil {
		// The server's view of the latest job is unknown now; the next
		// PATCH waits for a fresh job.
		cl.gen.last = nil
	} else {
		cl.lastID = out.id
		s.failed = !r.outs.record(op.key, nil, out.doc)
		cnt.jsonBytes += int64(len(out.doc))
		if out.cacheHit {
			cnt.cacheHits++
		}
		if op.class == classPatch {
			cnt.patches++
			if out.phases == 0 {
				cnt.paths++
			}
		}
	}
	st.record(s, err)
}

// outcome is what one submit → events → result exchange observed.
type outcome struct {
	id       string
	doc      []byte
	cacheHit bool
	phases   int   // phase frames on the job's stream; 0 = no pipeline phase ran
	non2xx   int64 // answers outside 2xx
}

// exchange submits one job, follows its event stream to the terminal
// frame and fetches its result. Traced, it records the HTTP round trips,
// the queue wait (submit to the running frame), the run (running to the
// terminal frame) and each phase the stream reports.
func (cl *svcClient) exchange(method, path string, body []byte, tr *tracer, root int32, class uint8) (outcome, error) {
	var out outcome
	submitted := tr.now()
	sp := tr.begin("http.submit", root)
	status, resp, err := cl.call(method, path, body)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	if status != http.StatusAccepted {
		out.non2xx++
		return out, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(resp))
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &sub); err != nil || sub.ID == "" {
		return out, fmt.Errorf("%s %s: bad answer %q", method, path, resp)
	}
	out.id = sub.ID
	sp = tr.begin("http.events", root)
	status, terminal, err := cl.events("/v1/jobs/"+sub.ID+"/events", tr, root, submitted, class, &out)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		out.non2xx++
		return out, fmt.Errorf("events of %s: status %d", sub.ID, status)
	}
	if terminal != "done" {
		return out, fmt.Errorf("job %s ended %q", sub.ID, terminal)
	}
	sp = tr.begin("http.result", root)
	status, out.doc, err = cl.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		out.non2xx++
		return out, fmt.Errorf("result of %s: status %d", sub.ID, status)
	}
	return out, nil
}

func (cl *svcClient) call(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, cl.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// phaseFrame is the payload of a phase-end SSE frame.
type phaseFrame struct {
	Phase     string `json:"phase"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

// events reads a job's SSE stream to its end and returns the HTTP status
// and the terminal frame's event name.
func (cl *svcClient) events(path string, tr *tracer, root int32, submitted int64, class uint8, out *outcome) (int, string, error) {
	resp, err := cl.hc.Get(cl.base + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, "", nil
	}
	cl.br.Reset(resp.Body)
	defer cl.br.Reset(nil)
	var name, data []byte
	terminal := ""
	running := submitted
	var phases []phaseFrame
	var ends []int64
	for {
		line, err := cl.br.ReadSlice('\n')
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil {
			return resp.StatusCode, terminal, fmt.Errorf("reading %s: %w", path, err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			switch string(name) {
			case "running":
				running = tr.now()
			case "phase-start":
				out.phases++
			case "phase-end":
				if tr != nil {
					var f phaseFrame
					if err := json.Unmarshal(data, &f); err != nil {
						return resp.StatusCode, terminal, fmt.Errorf("phase frame %q: %w", data, err)
					}
					phases = append(phases, f)
					ends = append(ends, tr.now())
				}
			case "done", "failed", "canceled":
				terminal = string(name)
				out.cacheHit = bytes.Contains(data, []byte(`"cache_hit":true`))
				now := tr.now()
				tr.add("queue", root, submitted, running)
				run := "run"
				switch {
				case class == classPatch:
					run = "run.patch"
				case out.cacheHit:
					run = "run.hit"
				}
				ri := tr.add(run, root, running, now)
				for i, f := range phases {
					tr.add(f.Phase, ri, ends[i]-f.ElapsedNS, ends[i])
				}
			}
			name, data = name[:0], data[:0]
		case line[0] == ':':
		case bytes.HasPrefix(line, []byte("event: ")):
			name = append(name[:0], line[len("event: "):]...)
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data[:0], line[len("data: "):]...)
		}
	}
	return resp.StatusCode, terminal, nil
}

// sseDropped reads the server's count of SSE events dropped for slow
// consumers from GET /metrics.
func (r *svcRunner) sseDropped() (int64, error) {
	status, data, err := r.cls[0].call(http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: status %d", status)
	}
	var vars struct {
		Dropped int64 `json:"bistpathd.sse_dropped_events"`
	}
	if err := json.Unmarshal(data, &vars); err != nil {
		return 0, fmt.Errorf("GET /metrics: %w", err)
	}
	return vars.Dropped, nil
}

func (r *svcRunner) extra() (map[string]float64, error) {
	dropped, err := r.sseDropped()
	if err != nil {
		return nil, err
	}
	cs := r.cache.Stats()
	return map[string]float64{
		"cache.hit_ratio":    ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)),
		"cache.coalesced":    float64(cs.Coalesced),
		"cache.bytes":        float64(cs.Bytes),
		"server.sse_dropped": float64(dropped - r.dropped0),
	}, nil
}

// svcRef is one distinct design the check synthesizes as a reference.
type svcRef struct {
	key      string
	text     string
	mods     map[string]string
	overhead bool // among the designs that define bist_overhead_pct
}

// references replays every client's op sequence (as far as the window
// drew it, and at least overheadOps ops) and returns its distinct
// designs in key order.
func (r *svcRunner) references() ([]*svcRef, error) {
	refs := make(map[string]*svcRef)
	for c, cl := range r.cls {
		gen := newMixGen(r.seed, c, len(r.cls))
		for i := 0; i < max(cl.drawn, overheadOps); i++ {
			op, err := gen.next()
			if err != nil {
				return nil, err
			}
			ref := refs[op.key]
			if ref == nil {
				ref = &svcRef{key: op.key, text: op.text, mods: op.mods}
				refs[op.key] = ref
			}
			ref.overhead = ref.overhead || i < overheadOps
		}
	}
	out := make([]*svcRef, 0, len(refs))
	for _, ref := range refs {
		out = append(out, ref)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// check synthesizes every distinct design of the run cold, through a
// fresh Synthesizer without cache or session, verifies that reference
// independently, and requires every served result of the design (stats
// aside) to equal the reference's Result.JSON. A PATCH result is thereby
// compared with a cold synthesis of the identically edited design.
func (r *svcRunner) check(ctx context.Context) (checkResult, error) {
	var chk checkResult
	if conns := r.conns.Load(); conns > int64(len(r.cls)) {
		chk.problems = append(chk.problems, fmt.Sprintf("%d connections for %d clients", conns, len(r.cls)))
	}
	refs, err := r.references()
	if err != nil {
		return chk, err
	}
	synth := bistpath.New(bistpath.DefaultConfig())
	defer synth.Close()
	verdicts := make([]referenceVerdict, len(refs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(refs) {
					return
				}
				v, err := reference(ctx, synth, refs[i])
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				verdicts[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return chk, firstErr
	}
	var sum float64
	var n int
	for i, ref := range refs {
		v := verdicts[i]
		chk.encode += v.encode
		chk.encodes++
		if ref.overhead {
			sum += v.overhead
			n++
		}
		e := r.outs.entries[ref.key]
		switch {
		case v.problem != "":
			chk.problems = append(chk.problems, ref.key+": reference: "+v.problem)
		case e != nil && e.hash != v.hash:
			chk.problems = append(chk.problems, ref.key+": served result differs from the library's")
		default:
			continue
		}
		if e != nil {
			chk.failedOps += e.ops - e.bad
		}
	}
	for key := range r.outs.entries {
		if i := sort.Search(len(refs), func(i int) bool { return refs[i].key >= key }); i == len(refs) || refs[i].key != key {
			return chk, fmt.Errorf("served design %s is missing from the replayed op sequence", key)
		}
	}
	chk.overheadPct = ratio(sum, float64(n))
	chk.problems = append(chk.problems, r.outs.mismatches()...)
	return chk, nil
}

// referenceVerdict is the outcome of one reference synthesis.
type referenceVerdict struct {
	problem  string
	hash     [32]byte
	overhead float64
	encode   time.Duration
}

func reference(ctx context.Context, synth *bistpath.Synthesizer, ref *svcRef) (referenceVerdict, error) {
	var v referenceVerdict
	d, err := bistpath.ParseDFG(ref.text)
	if err != nil {
		v.problem = err.Error()
		return v, nil
	}
	res, err := synth.Synthesize(ctx, d, ref.mods)
	if err != nil {
		v.problem = err.Error()
		return v, nil
	}
	if v.problem, err = verifyResult(ctx, res, bistpath.DefaultConfig(), 0); err != nil {
		return v, err
	}
	t0 := time.Now()
	doc, err := res.JSON()
	v.encode = time.Since(t0)
	if err != nil {
		return v, err
	}
	v.hash = stripDigest(doc)
	v.overhead = res.OverheadPct
	return v, nil
}

func (r *svcRunner) layerPass(ctx context.Context) (layerStats, error) {
	refs, err := r.references()
	if err != nil {
		return layerStats{}, err
	}
	var inputs []layerInput
	for _, ref := range refs {
		if ref.overhead {
			inputs = append(inputs, layerInput{design: design{name: ref.key, text: ref.text, mods: ref.mods}, cfg: bistpath.DefaultConfig()})
		}
	}
	return layerPass(ctx, inputs)
}

// mixGen is one client's op sequence, a pure function of (seed, client,
// clients): which class comes next, which design is resubmitted and
// which edit a PATCH carries depend only on its own random source and on
// the designs it produced before, never on timing or on the server's
// answers.
type mixGen struct {
	rng    *rand.Rand
	first  int64 // start of this client's share of the new-design seeds
	perm   []int // order in which the share is drawn
	pos    int
	recent []mixDesign
	last   *lineage // design of the latest job; nil until a job exists
}

// mixDesign is a new design as submitted.
type mixDesign struct {
	key  string
	body []byte
	text string
	mods map[string]string
}

// lineage is the design of the client's latest job as the server holds
// it: a PATCH edits it in place, a POST starts a new one.
type lineage struct {
	text string
	mods map[string]string
	g    *dfg.Graph // parsed on the first PATCH
}

// mixOp is one op of the sequence: the request body, and the design
// whose cold synthesis the served result must equal.
type mixOp struct {
	class uint8
	body  []byte
	key   string
	text  string
	mods  map[string]string
}

func newMixGen(seed int64, client, clients int) *mixGen {
	share := serviceCount / clients
	rng := rand.New(rand.NewSource(seed<<8 + int64(client)))
	return &mixGen{rng: rng, first: serviceFirst + int64(client*share), perm: rng.Perm(share)}
}

func (m *mixGen) next() (mixOp, error) {
	r := m.rng.Float64()
	switch {
	case r < patchShare:
		if m.last != nil {
			if op, ok, err := m.patch(); err != nil || ok {
				return op, err
			}
		}
	case r < patchShare+resubmitShare:
		if len(m.recent) > 0 {
			d := m.recent[m.rng.Intn(len(m.recent))]
			m.last = &lineage{text: d.text, mods: d.mods}
			return mixOp{class: classResubmit, body: d.body, key: d.key, text: d.text, mods: d.mods}, nil
		}
	}
	return m.fresh()
}

// fresh draws the client's next new design.
func (m *mixGen) fresh() (mixOp, error) {
	var seed int64
	for {
		if m.pos == len(m.perm) {
			return mixOp{}, errors.New("service-mix: new-design seed range exhausted")
		}
		seed = m.first + int64(m.perm[m.pos])
		m.pos++
		if !excludedRandom[seed] {
			break
		}
	}
	d, err := randomDesign(seed)
	if err != nil {
		return mixOp{}, err
	}
	body, key, err := submitBody(d.text, d.mods)
	if err != nil {
		return mixOp{}, err
	}
	m.recent = append(m.recent, mixDesign{key: key, body: body, text: d.text, mods: d.mods})
	if len(m.recent) > recentWindow {
		m.recent = m.recent[1:]
	}
	m.last = &lineage{text: d.text, mods: d.mods}
	return mixOp{class: classNew, body: body, key: key, text: d.text, mods: d.mods}, nil
}

// patch draws one set_step edit that keeps the latest job's design valid
// and applies it to the lineage; ok is false when no op can move.
func (m *mixGen) patch() (op mixOp, ok bool, err error) {
	l := m.last
	if l.g == nil {
		if l.g, err = dfg.ParseString(l.text); err != nil {
			return op, false, err
		}
	}
	moves := stepMoves(l.g, l.mods)
	if len(moves) == 0 {
		return op, false, nil
	}
	mv := moves[m.rng.Intn(len(moves))]
	l.g.Op(mv.op).Step = mv.step
	l.text = setStep(l.text, mv.op, mv.step)
	body, err := json.Marshal(map[string]any{
		"edits": []map[string]any{{"kind": "set_step", "op": mv.op, "step": mv.step}},
	})
	if err != nil {
		return op, false, err
	}
	_, key, err := submitBody(l.text, l.mods)
	if err != nil {
		return op, false, err
	}
	return mixOp{class: classPatch, body: body, key: key, text: l.text, mods: l.mods}, true, nil
}

// setStep rewrites the step of one op line of a DFG text in place. The
// server's session keeps the submitted declaration order, which sets the
// order of each module's ops in the result, so the reference text must
// keep it too; Graph.Text would reorder the ops by step.
func setStep(text, op string, step int) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "op "+op+" ") {
			if at := strings.LastIndex(line, " @"); at >= 0 {
				lines[i] = line[:at] + " @" + strconv.Itoa(step)
			}
		}
	}
	return strings.Join(lines, "\n")
}

type move struct {
	op   string
	step int
}

// stepMoves lists every reschedule of one op that keeps the design
// valid: the op moves to another step within the schedule, after all its
// operands are produced and before any consumer reads its result. It
// also keeps the op's place among the other ops of its module (no other
// op of the module runs between the old and the new step). A PATCH that
// reorders a module's ops and takes the session's reschedule fast path
// is served with the module's pre-edit op order, which a cold synthesis
// of the edited design does not reproduce; the workload leaves those
// edits out so that every op at this commit succeeds.
func stepMoves(g *dfg.Graph, mods map[string]string) []move {
	steps := make(map[string][]int) // module -> steps its ops run at
	for _, o := range g.Ops() {
		steps[mods[o.Name]] = append(steps[mods[o.Name]], o.Step)
	}
	last := g.NumSteps()
	var out []move
	for _, o := range g.Ops() {
		lo, hi := 1, last
		for _, a := range o.Args {
			if def := g.Var(a).Def; def != "" {
				lo = max(lo, g.Op(def).Step+1)
			}
		}
		for _, u := range g.Var(o.Result).Uses {
			hi = min(hi, g.Op(u).Step-1)
		}
		// Narrow [lo, hi] to the steps strictly between the module's
		// neighbouring ops, which also leaves the module free.
		for _, s := range steps[mods[o.Name]] {
			switch {
			case s < o.Step:
				lo = max(lo, s+1)
			case s > o.Step:
				hi = min(hi, s-1)
			}
		}
		for t := lo; t <= hi; t++ {
			if t != o.Step {
				out = append(out, move{o.Name, t})
			}
		}
	}
	return out
}

// submitBody renders the POST /v1/jobs body of a design and the key
// that names the design's expected output.
func submitBody(text string, mods map[string]string) ([]byte, string, error) {
	body, err := json.Marshal(struct {
		DFG     string            `json:"dfg"`
		Modules map[string]string `json:"modules"`
	}{text, mods})
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(body)
	return body, hex.EncodeToString(sum[:12]), nil
}
