package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"

	"bistpath"
)

// outputs files each op's output under its (design, config) key. The
// first output of a key is checked once, after the window, against
// references the pipeline under test did not produce; every later output
// of the key must match the first byte for byte, stats aside.
type outputs struct {
	mu      sync.Mutex
	entries map[string]*outEntry
}

type outEntry struct {
	first *bistpath.Result // library workloads: the first Result of the key
	hash  [32]byte         // digest of the first output without its stats
	ops   int64            // ops that produced this key
	bad   int64            // of them, ops whose output differed from the first
}

func newOutputs() *outputs { return &outputs{entries: make(map[string]*outEntry)} }

// record files one op's output document and reports whether it matches
// the first output of its key. res may be nil (service-mix, where only
// the served document exists).
func (o *outputs) record(key string, res *bistpath.Result, doc []byte) bool {
	h := stripDigest(doc)
	o.mu.Lock()
	defer o.mu.Unlock()
	e := o.entries[key]
	if e == nil {
		o.entries[key] = &outEntry{first: res, hash: h, ops: 1}
		return true
	}
	e.ops++
	if h != e.hash {
		e.bad++
		return false
	}
	return true
}

// mismatches reports the keys whose later outputs differed from the
// first; those ops are already counted failed when recorded.
func (o *outputs) mismatches() []string {
	var out []string
	for key, e := range o.entries {
		if e.bad > 0 {
			out = append(out, fmt.Sprintf("%s: %d of %d outputs differ from the first", key, e.bad, e.ops))
		}
	}
	return out
}

var (
	statsOpen  = []byte("\n  \"stats\": {")
	statsClose = []byte("\n  }")
)

// stripDigest hashes a Result.JSON document without its "stats" member,
// the one part that varies between runs of the same design and config.
// Result.JSON indents by two spaces, so the member runs from the line
// opening `"stats": {` to the first line that closes at that depth.
func stripDigest(doc []byte) [32]byte {
	doc = bytes.TrimSuffix(doc, []byte("\n"))
	h := sha256.New()
	if i := bytes.Index(doc, statsOpen); i >= 0 {
		if j := bytes.Index(doc[i+len(statsOpen):], statsClose); j >= 0 {
			h.Write(doc[:i])
			doc = doc[i+len(statsOpen)+j+len(statsClose):]
		}
	}
	h.Write(doc)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// verifyResult checks one distinct output independently of the pipeline
// that produced it. The verification harness re-derives the plan
// invariants and cross-checks the data path against direct evaluation of
// the DFG (VerifyPareto checks a front against an exhaustive oracle), and
// a paper design must reproduce the BIST area pinned in testdata. It
// returns a description of the first failed check, or "".
func verifyResult(ctx context.Context, res *bistpath.Result, cfg bistpath.Config, golden int) (string, error) {
	if cfg.Objective == bistpath.ParetoFront {
		rep, err := res.VerifyPareto(ctx, bistpath.VerifyOptions{})
		if err != nil {
			return "", err
		}
		if !rep.OK() {
			return rep.Err().Error(), nil
		}
	} else {
		rep, err := res.Verify(ctx, bistpath.VerifyOptions{SkipOracles: true})
		if err != nil {
			return "", err
		}
		if !rep.OK() {
			return rep.Err().Error(), nil
		}
	}
	if golden != 0 && res.BISTArea != golden {
		return fmt.Sprintf("BIST area %d, testdata pins %d", res.BISTArea, golden), nil
	}
	return "", nil
}
