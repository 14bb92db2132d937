package bistgen

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"bistpath/internal/benchdata"
	"bistpath/internal/bist"
	"bistpath/internal/datapath"
	"bistpath/internal/dfg"
	"bistpath/internal/interconnect"
	"bistpath/internal/regassign"
)

func TestLFSRPeriodIsMaximal(t *testing.T) {
	// A primitive polynomial gives period 2^n - 1 for every nonzero seed.
	for _, w := range []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12} {
		if got, want := lfsrPeriod(w, primitiveTaps[w]), (1<<uint(w))-1; got != want {
			t.Errorf("width %d: period %d, want %d", w, got, want)
		}
	}
}

func TestLFSRSeedHandling(t *testing.T) {
	if _, err := NewLFSR(17, 1); err == nil {
		t.Error("unsupported width accepted")
	}
	l, err := NewLFSR(8, 0) // zero seed must be coerced
	if err != nil {
		t.Fatal(err)
	}
	if l.state == 0 {
		t.Error("LFSR locked at zero")
	}
	l2, _ := NewLFSR(8, 0x1FF) // seed masked to width
	if l2.state > 0xFF {
		t.Error("seed not masked")
	}
}

// Every goroutine that elaborates a gate-level design calls
// DistinctTaps, so its process-wide cache must be safe for concurrent
// use. The cache is emptied first: the goroutines must fill it, not only
// read what an earlier test left there. Run under -race.
func TestDistinctTapsConcurrent(t *testing.T) {
	widths := []int{8, 9, 10}
	want := map[int][]uint64{}
	for _, w := range widths {
		want[w] = DistinctTaps(w, 5)
	}
	distinctTapsCache = map[int][]uint64{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, w := range widths {
				k := 2 + (g+w)%4
				if got := DistinctTaps(w, k); !reflect.DeepEqual(got, want[w][:k]) {
					t.Errorf("DistinctTaps(%d, %d) = %#x, want %#x", w, k, got, want[w][:k])
				}
			}
		}()
	}
	wg.Wait()
}

func TestLFSRNeverZero(t *testing.T) {
	l, _ := NewLFSR(8, 0xAB)
	for i := 0; i < 1000; i++ {
		if l.Next() == 0 {
			t.Fatal("LFSR reached zero state")
		}
	}
}

func TestLFSRCoversAllValues(t *testing.T) {
	l, _ := NewLFSR(6, 7)
	seen := make(map[uint64]bool)
	for i := 0; i < 63; i++ {
		seen[l.Next()] = true
	}
	if len(seen) != 63 {
		t.Errorf("6-bit LFSR produced %d distinct patterns, want 63", len(seen))
	}
}

func TestMISRDistinguishesStreams(t *testing.T) {
	m1, _ := NewMISR(8)
	m2, _ := NewMISR(8)
	for i := uint64(0); i < 100; i++ {
		m1.Shift(i * 37)
		if i == 50 {
			m2.Shift(i*37 ^ 4) // single-bit difference
		} else {
			m2.Shift(i * 37)
		}
	}
	if m1.Signature() == m2.Signature() {
		t.Error("MISR aliased a single-bit error")
	}
}

func TestMISRDeterministic(t *testing.T) {
	run := func() uint64 {
		m, _ := NewMISR(12)
		for i := uint64(1); i < 50; i++ {
			m.Shift(i)
		}
		return m.Signature()
	}
	if run() != run() {
		t.Error("MISR not deterministic")
	}
}

func TestParityQuick(t *testing.T) {
	slow := func(x uint64) uint64 {
		var p uint64
		for i := 0; i < 64; i++ {
			p ^= (x >> uint(i)) & 1
		}
		return p
	}
	if err := quick.Check(func(x uint64) bool { return parity(x) == slow(x) }, nil); err != nil {
		t.Error(err)
	}
}

func TestEnumerateFaults(t *testing.T) {
	fs := EnumerateFaults("M1", true, 8)
	if len(fs) != 3*8*2 {
		t.Errorf("binary module: %d faults, want 48", len(fs))
	}
	fs = EnumerateFaults("M1", false, 8)
	if len(fs) != 2*8*2 {
		t.Errorf("unary module: %d faults, want 32", len(fs))
	}
}

func TestEvalFaulty(t *testing.T) {
	// Fault-free matches plain arithmetic.
	if got := EvalFaulty(dfg.Add, 3, 4, 8, nil); got != 7 {
		t.Errorf("3+4 = %d", got)
	}
	// Stuck-at-1 on L bit 3 turns 3 into 11.
	f := Fault{Site: PortL, Bit: 3, Stuck1: true}
	if got := EvalFaulty(dfg.Add, 3, 4, 8, &f); got != 15 {
		t.Errorf("faulty add = %d, want 15", got)
	}
	// Stuck-at-0 on OUT bit 0.
	f = Fault{Site: PortOut, Bit: 0, Stuck1: false}
	if got := EvalFaulty(dfg.Add, 3, 4, 8, &f); got != 6 {
		t.Errorf("faulty out = %d, want 6", got)
	}
	if s := f.String(); s != ".OUT[0]/sa0" {
		t.Errorf("fault string = %q", s)
	}
}

// End-to-end: the BIST plan synthesized for ex1 must detect nearly all
// port stuck-at faults with 255 pseudo-random patterns. An 8-bit MISR
// aliases each fault with probability ~2^-8, so a miss or two out of ~100
// faults is within theory; anything below 97%% would indicate a broken
// test structure rather than aliasing.
func TestCoverageEx1(t *testing.T) {
	rep := coverageFor(t, benchdata.Ex1(), 255)
	if pct := rep.Pct(); pct < 97.0 {
		t.Errorf("ex1 coverage = %.2f%%, want >= 97%%", pct)
	}
}

func TestCoverageAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, b := range benchdata.All() {
		rep := coverageFor(t, b, 255)
		if pct := rep.Pct(); pct < 95.0 {
			t.Errorf("%s coverage = %.2f%%, want >= 95%%", b.Name, pct)
		}
		f, d := rep.Totals()
		if f == 0 || d > f {
			t.Errorf("%s: implausible totals %d/%d", b.Name, d, f)
		}
	}
}

func TestCoverageNeedsPatterns(t *testing.T) {
	b := benchdata.Ex1()
	dp, plan := planFor(t, b)
	if _, err := Coverage(dp, plan, 0, 1); err == nil {
		t.Error("zero patterns accepted")
	}
}

func planFor(t testing.TB, b *benchdata.Benchmark) (*datapath.Datapath, *bist.Plan) {
	t.Helper()
	mb, err := b.Modules()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regassign.Bind(b.Graph, mb, regassign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ib, err := interconnect.Bind(b.Graph, mb, rb, regassign.NewSharing(b.Graph, mb))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := datapath.Build(b.Graph, mb, rb, ib, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := bist.Optimize(dp, bist.DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	return dp, plan
}

func coverageFor(t testing.TB, b *benchdata.Benchmark, patterns int) *Report {
	t.Helper()
	dp, plan := planFor(t, b)
	rep, err := Coverage(dp, plan, patterns, 0xDEADBEEF)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// Coverage grows (weakly) with test length and saturates high.
func TestCoverageCurveMonotone(t *testing.T) {
	b := benchdata.Ex1()
	dp, plan := planFor(t, b)
	var curve []float64
	for _, p := range []int{1, 4, 16, 250} {
		rep, err := Coverage(dp, plan, p, 99)
		if err != nil {
			t.Fatal(err)
		}
		curve = append(curve, rep.Pct())
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1]-2 { // small non-monotonic jitter from aliasing allowed
			t.Errorf("coverage dropped: %v", curve)
		}
	}
	if curve[len(curve)-1] < 95 {
		t.Errorf("saturated coverage %.1f%% too low", curve[len(curve)-1])
	}
	if curve[0] >= curve[len(curve)-1] {
		t.Errorf("curve flat from the start: %v", curve)
	}
}
