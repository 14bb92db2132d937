package bistpath

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// ResultSchemaVersion is the version tag embedded in Result.JSON()
// output ("schema"). It is bumped whenever a field is removed or changes
// meaning; adding fields is not a version bump.
const ResultSchemaVersion = 1

// The machine-readable result schema. Every field is stable and
// documented on the public types the document holds — RegisterInfo,
// ModuleInfo, Weights, CostVector, ParetoPoint and Stats — whose json
// tags are the wire names, in the order they are written; the top level
// is jsonWriter.result's. Result.JSON never leaks unexported state. All
// fields except "stats" are deterministic (same design, same config →
// same bytes); "stats" carries the timing-dependent measurements and the
// search counters described on Stats.
//
// The document is byte for byte what json.MarshalIndent(doc, "", "  ")
// writes for resultJSON, the tagged struct resultjson_test.go keeps as
// the reference (TestResultJSONMatchesReference, FuzzResultJSON), so the
// writer cannot drift from the tags that users' own json.Marshal and the
// result cache's disk entries read.

// JSON renders the result as an indented, machine-readable JSON document
// with a stable schema (see above and the README's Observability
// section). Everything except the "stats" object is deterministic;
// consumers diffing results across runs should ignore stats' *_ns
// fields. A non-finite float (OverheadPct or a Pareto point's) is the
// *json.UnsupportedValueError encoding/json returns. JSON is safe for
// concurrent use.
func (r *Result) JSON() ([]byte, error) {
	w := jsonWriters.Get().(*jsonWriter)
	*w = jsonWriter{b: w.b[:0]}
	w.result(r)
	var out []byte
	err := w.err
	if err == nil {
		out = make([]byte, len(w.b))
		copy(out, w.b)
	}
	if cap(w.b) <= maxPooledJSON {
		jsonWriters.Put(w)
	}
	return out, err
}

// jsonWriters recycles writers and their buffers, so a document costs
// one exact-size allocation once the pool is warm. A buffer grown past
// maxPooledJSON is left to the collector rather than pinned by the pool.
var jsonWriters = sync.Pool{New: func() any { return &jsonWriter{b: make([]byte, 0, 4<<10)} }}

const maxPooledJSON = 256 << 10

// jsonWriter appends an indented JSON document ("  " per level) to b.
// first is true until the innermost open container gets its first
// member; err keeps the first non-finite float.
type jsonWriter struct {
	b     []byte
	depth int
	first bool
	err   error
}

func (w *jsonWriter) result(r *Result) {
	regs, mods, sessions, counts := r.Registers, r.Modules, r.Sessions, r.StyleCounts
	// Empty top-level collections are written as [] and {}, never null.
	if regs == nil {
		regs = []RegisterInfo{}
	}
	if mods == nil {
		mods = []ModuleInfo{}
	}
	if sessions == nil {
		sessions = [][]string{}
	}
	if counts == nil {
		counts = map[string]int{}
	}
	w.open('{')
	w.intField("schema", ResultSchemaVersion)
	w.strField("name", r.Name)
	w.strField("mode", r.Mode.String()) // "testable" | "traditional"
	w.intField("width", int64(r.Width)) // datapath bit width
	w.key("registers")
	jsonList(w, regs, (*jsonWriter).register)
	w.key("modules")
	jsonList(w, mods, (*jsonWriter).module)
	w.intField("mux_count", int64(r.MuxCount))
	w.intField("mux_extra_inputs", int64(r.MuxExtraInputs))
	w.intField("base_area", int64(r.BaseArea)) // gate equivalents before BIST
	w.intField("bist_area", int64(r.BISTArea)) // gate equivalents after BIST
	w.key("overhead_pct")
	w.float(r.OverheadPct)
	w.key("style_counts") // non-normal style -> register count
	w.counts(counts)
	w.key("sessions") // module names tested concurrently
	jsonList(w, sessions, (*jsonWriter).strs)
	// The multi-objective fields are written only for the WeightedSum
	// and ParetoFront objectives, so MinArea documents stay
	// byte-identical across releases (additive fields are not a schema
	// version bump).
	if r.Cost != nil {
		w.strField("objective", r.cfg.Objective.String()) // "weighted" | "pareto"
		if r.cfg.Objective == WeightedSum {
			w.key("weights") // WeightedSum only
			w.cost(CostVector(r.cfg.Weights))
		}
		w.key("cost")
		w.cost(*r.Cost)
		if len(r.Pareto) > 0 {
			w.key("pareto") // ParetoFront only
			jsonList(w, r.Pareto, (*jsonWriter).paretoPoint)
		}
	}
	w.key("stats")
	w.stats(&r.Stats)
	w.close('}')
}

func (w *jsonWriter) register(reg RegisterInfo) {
	w.open('{')
	w.strField("name", reg.Name)
	w.key("vars")
	w.strs(reg.Vars)
	w.strField("style", reg.Style)
	w.intField("sharing_degree", int64(reg.SharingDegree))
	w.close('}')
}

func (w *jsonWriter) module(m ModuleInfo) {
	w.open('{')
	w.strField("name", m.Name)
	w.strField("class", m.Class)
	w.key("ops")
	w.strs(m.Ops)
	w.strField("embedding", m.Embedding)
	w.key("forced_cbilbo")
	w.b = strconv.AppendBool(w.b, m.ForcedCBILBO)
	w.close('}')
}

// cost writes a CostVector; Weights has the same fields and tags.
func (w *jsonWriter) cost(c CostVector) {
	w.open('{')
	w.intField("area", int64(c.Area))
	w.intField("test_time", int64(c.TestTime))
	w.intField("peak_power", int64(c.PeakPower))
	w.close('}')
}

func (w *jsonWriter) paretoPoint(p ParetoPoint) {
	w.open('{')
	w.key("cost")
	w.cost(p.Cost)
	w.intField("bist_area", int64(p.BISTArea))
	w.key("overhead_pct")
	w.float(p.OverheadPct)
	w.key("style_counts")
	w.counts(p.StyleCounts)
	w.key("sessions")
	jsonList(w, p.Sessions, (*jsonWriter).strs)
	w.close('}')
}

func (w *jsonWriter) stats(s *Stats) {
	w.open('{')
	w.intField("total_ns", int64(s.Total))
	w.intField("validate_ns", int64(s.Validate))
	w.intField("register_bind_ns", int64(s.RegisterBind))
	w.intField("interconnect_ns", int64(s.Interconnect))
	w.intField("datapath_ns", int64(s.Datapath))
	w.intField("bist_search_ns", int64(s.BISTSearch))
	w.intField("search_nodes", s.SearchNodes)
	w.intField("bound_prunes", s.BoundPrunes)
	w.intField("incumbent_updates", s.IncumbentUpdates)
	w.intField("embeddings_enumerated", s.EmbeddingsEnumerated)
	w.intField("search_workers", int64(s.SearchWorkers))
	w.intField("lemma2_checks", s.Lemma2Checks)
	w.intField("case_overrides", s.CaseOverrides)
	w.close('}')
}

// jsonList writes xs as an array, elem writing each element; a nil
// slice is null and an empty one [], as encoding/json writes them.
func jsonList[T any](w *jsonWriter, xs []T, elem func(*jsonWriter, T)) {
	switch {
	case xs == nil:
		w.b = append(w.b, "null"...)
	case len(xs) == 0:
		w.b = append(w.b, "[]"...)
	default:
		w.open('[')
		for _, x := range xs {
			w.next()
			elem(w, x)
		}
		w.close(']')
	}
}

func (w *jsonWriter) strs(ss []string) { jsonList(w, ss, (*jsonWriter).str) }

// counts writes a style-count map with its keys sorted, as encoding/json
// orders map keys.
func (w *jsonWriter) counts(m map[string]int) {
	switch {
	case m == nil:
		w.b = append(w.b, "null"...)
		return
	case len(m) == 0:
		w.b = append(w.b, "{}"...)
		return
	}
	var arr [8]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.open('{')
	for _, k := range keys {
		w.next()
		w.str(k)
		w.b = append(w.b, ": "...)
		w.b = strconv.AppendInt(w.b, int64(m[k]), 10)
	}
	w.close('}')
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

// close ends a container that has at least one member.
func (w *jsonWriter) close(c byte) {
	w.depth--
	w.newline()
	w.b = append(w.b, c)
	w.first = false
}

// next starts a member: a comma after the previous one, then a new
// indented line.
func (w *jsonWriter) next() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

// newline starts a line indented to the current depth. The schema nests
// five levels deep at most (pareto[].sessions[][]), which indent covers.
func (w *jsonWriter) newline() {
	w.b = append(w.b, indent[:1+2*w.depth]...)
}

const indent = "\n            "

// key starts an object member whose name needs no escaping.
func (w *jsonWriter) key(k string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, `": `...)
}

func (w *jsonWriter) intField(k string, v int64) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, v, 10)
}

func (w *jsonWriter) strField(k, v string) {
	w.key(k)
	w.str(v)
}

// float writes f as encoding/json does: the shortest representation
// in 'f' format, or in 'e' format with a one-digit negative exponent
// kept short when |f| < 1e-6 or |f| >= 1e21. A non-finite f sets err.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(w.b); w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// str writes s as a JSON string with encoding/json's escaping: the
// HTML-significant <, > and & and the line and paragraph separators
// U+2028 and U+2029 as \u escapes, control characters as \b \f \n \r \t
// or \u00XX, and each byte of invalid UTF-8 as \ufffd.
func (w *jsonWriter) str(s string) {
	w.b = append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			w.b = append(w.b, s[start:i]...)
			switch c {
			case '"', '\\':
				w.b = append(w.b, '\\', c)
			case '\b':
				w.b = append(w.b, '\\', 'b')
			case '\f':
				w.b = append(w.b, '\\', 'f')
			case '\n':
				w.b = append(w.b, '\\', 'n')
			case '\r':
				w.b = append(w.b, '\\', 'r')
			case '\t':
				w.b = append(w.b, '\\', 't')
			default:
				w.b = append(w.b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			w.b = append(w.b, s[start:i]...)
			w.b = append(w.b, `\ufffd`...)
		case r == 0x2028 || r == 0x2029:
			w.b = append(w.b, s[start:i]...)
			w.b = append(w.b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	w.b = append(w.b, s[start:]...)
	w.b = append(w.b, '"')
}
