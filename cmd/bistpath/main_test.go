package main

import (
	"errors"
	"strings"
	"testing"
)

// Errors print behind exactly one "bistpath:" prefix, whether they come
// from the library (already prefixed) or from the command itself.
func TestErrorLineSinglePrefix(t *testing.T) {
	libErr := cmdSynth([]string{"-bench", "nosuch"})
	if libErr == nil {
		t.Fatal("synth -bench nosuch succeeded")
	}
	for _, err := range []error{libErr, errors.New("open x.dfg: no such file or directory")} {
		line := errorLine(err)
		if !strings.HasPrefix(line, "bistpath: ") || strings.Count(line, "bistpath:") != 1 {
			t.Errorf("errorLine(%q) = %q, want one bistpath: prefix", err, line)
		}
	}
}
