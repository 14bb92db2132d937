package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bistpath"
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

// capture runs cmd with os.Stdout redirected and returns what it
// printed.
func capture(t *testing.T, cmd func([]string) error, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	err = cmd(args)
	os.Stdout = stdout
	w.Close()
	out := <-printed
	r.Close()
	if err != nil {
		t.Fatalf("%s: %v", strings.Join(args, " "), err)
	}
	return string(out)
}

// withoutStats decodes a Result JSON document and drops its stats
// object, the only part that varies run to run (wall times).
func withoutStats(t *testing.T, doc []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatalf("%v in %s", err, doc)
	}
	delete(m, "stats")
	return m
}

// A benchmark list prints every design exactly as a run on that design
// alone prints it, display flags included. -json prints one object for
// one design and an array for a list, and the display flags leave it
// alone.
func TestSynthListHonorsDisplayFlags(t *testing.T) {
	names := []string{"ex1", "ex2"}
	var texts []string
	var docs []map[string]any
	for _, name := range names {
		d, mods, err := bistpath.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.SynthesizeCtx(context.Background(), mods, bistpath.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		text := res.ReportText() + "\n" + res.NetlistText()
		if got := capture(t, cmdSynth, "-bench", name, "-netlist"); got != text {
			t.Errorf("synth -bench %s -netlist printed\n%s\nwant\n%s", name, got, text)
		}
		doc, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, withoutStats(t, doc))
		got := withoutStats(t, []byte(capture(t, cmdSynth, "-bench", name, "-json", "-netlist")))
		if !reflect.DeepEqual(got, docs[len(docs)-1]) {
			t.Errorf("synth -bench %s -json -netlist = %v, want %v", name, got, docs[len(docs)-1])
		}
		texts = append(texts, text)
	}

	list := strings.Join(names, ",")
	got := capture(t, cmdSynth, "-bench", list, "-netlist")
	if n := strings.Count(got, "\ndatapath "); n != len(names) {
		t.Errorf("synth -bench %s -netlist printed %d datapath headers, want %d", list, n, len(names))
	}
	if want := strings.Join(texts, "\n"); got != want {
		t.Errorf("synth -bench %s -netlist printed\n%s\nwant\n%s", list, got, want)
	}

	var raw []json.RawMessage
	if err := json.Unmarshal([]byte(capture(t, cmdSynth, "-bench", list, "-json", "-netlist")), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(names) {
		t.Fatalf("synth -bench %s -json printed %d documents, want %d", list, len(raw), len(names))
	}
	for i, doc := range raw {
		if got := withoutStats(t, doc); !reflect.DeepEqual(got, docs[i]) {
			t.Errorf("synth -bench %s -json document %d = %v, want %v", list, i, got, docs[i])
		}
	}
}

// A sim -vcd run that fails writes no waveform, and names the first
// missing input in sorted order on every run.
func TestSimVCDFailureLeavesNoFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.vcd")
	for i := 0; i < 8; i++ {
		err := cmdSim([]string{"-bench", "ex1", "-vcd", path})
		if err == nil || !strings.Contains(err.Error(), `missing input "a"`) {
			t.Fatalf("run %d: err = %v, want missing input \"a\"", i, err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("run %d: failed run left %s behind (stat err %v)", i, path, err)
		}
	}
}
