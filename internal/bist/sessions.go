package bist

import (
	"fmt"
	"sort"

	"bistpath/internal/area"
	"bistpath/internal/interconnect"
)

// sessionConflict reports whether two modules cannot be tested in the
// same session under the chosen embeddings:
//
//   - a signature register (tail) can compact responses for only one
//     module at a time;
//   - a register acting as TPG for one module and SA for the other must
//     be a CBILBO to do both concurrently; a plain BILBO forces separate
//     sessions (sharing a TPG between modules is fine: both receive the
//     same pseudo-random stream).
func (p *Plan) sessionConflict(a, b string) bool {
	ea, eb := p.Embeddings[a], p.Embeddings[b]
	if ea.Tail == eb.Tail {
		return true
	}
	crossed := func(x, y Embedding) bool {
		for _, h := range []string{x.HeadL, x.HeadR} {
			if h == "" || interconnect.IsPad(h) {
				continue
			}
			// h would generate for x and compact for y concurrently;
			// only a CBILBO can do both at once.
			if h == y.Tail && p.Styles[h] != area.CBILBO {
				return true
			}
		}
		return false
	}
	return crossed(ea, eb) || crossed(eb, ea)
}

// ScheduleSessions greedily colors the module conflict relation into test
// sessions (first-fit over modules sorted by name), minimizing session
// count heuristically.
func ScheduleSessions(p *Plan) [][]string {
	var mods []string
	for m := range p.Embeddings {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	var sessions [][]string
	for _, m := range mods {
		placed := false
		for i, sess := range sessions {
			ok := true
			for _, other := range sess {
				if p.sessionConflict(m, other) {
					ok = false
					break
				}
			}
			if ok {
				sessions[i] = append(sessions[i], m)
				placed = true
				break
			}
		}
		if !placed {
			sessions = append(sessions, []string{m})
		}
	}
	return sessions
}

// schedule is ScheduleSessions over a prepared space's interned
// registers: the same first-fit coloring, in module-name order, of a
// complete assignment (one embedding index per module position). A
// register is a CBILBO iff some chosen embedding uses it as both head
// and tail, so the conflict test reads the genome alone, never the
// duty counters. It returns the session count and, when power holds a
// weight per module position, the peak per-session power; a.sess is
// left holding each position's session.
func (a *searchArena) schedule(sp *searchSpace, genome []int32, power []int) (sessions, peak int) {
	for i, g := range genome {
		if e := sp.refs[i][g]; e.l == e.t || e.r == e.t {
			a.cbilbo[e.t] = true
		}
	}
	for k, i := range a.byName {
		e := sp.refs[i][genome[i]]
		clear(a.taken[:sessions])
		for _, j := range a.byName[:k] {
			if o := sp.refs[j][genome[j]]; e.t == o.t || a.crossed(e, o) || a.crossed(o, e) {
				a.taken[a.sess[j]] = true
			}
		}
		s := 0
		for s < sessions && a.taken[s] {
			s++
		}
		sessions = max(sessions, s+1)
		a.sess[i] = int32(s)
	}
	for i, g := range genome {
		a.cbilbo[sp.refs[i][g].t] = false
	}
	if power != nil {
		clear(a.load[:sessions])
		for i, s := range a.sess[:len(genome)] {
			a.load[s] += power[i]
		}
		for _, l := range a.load[:sessions] {
			peak = max(peak, l)
		}
	}
	return sessions, peak
}

// crossed is the interned half of sessionConflict: a head of x is y's
// tail, which is not a CBILBO.
func (a *searchArena) crossed(x, y embRef) bool {
	return (x.l == y.t || x.r == y.t) && !a.cbilbo[y.t]
}

// checkSession verifies that a set of modules can run concurrently.
func (p *Plan) checkSession(sess []string) error {
	for i, a := range sess {
		for _, b := range sess[i+1:] {
			if p.sessionConflict(a, b) {
				return fmt.Errorf("bist: modules %s and %s conflict within one session", a, b)
			}
		}
	}
	return nil
}

// NumSessions returns the number of test sessions.
func (p *Plan) NumSessions() int { return len(p.Sessions) }
