package report

import (
	"strings"
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/datapath"
	"bistpath/internal/interconnect"
	"bistpath/internal/regassign"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("Title", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRowf("beta", 2.5)
	tab.AddRowf("gamma", 7)
	s := tab.String()
	for _, want := range []string{"Title", "name", "alpha", "2.50", "gamma", "7", "----"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 6 { // title + header + sep + 3 rows
		t.Errorf("got %d lines:\n%s", len(lines), s)
	}
	// Column alignment: every data line at least as wide as the header.
	hdr := lines[1]
	for _, l := range lines[2:] {
		if len(l) < len(strings.TrimRight(hdr, " ")) {
			t.Errorf("row narrower than header: %q", l)
		}
	}
}

func TestAddRowPadsAndTruncates(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("only")
	tab.AddRow("x", "y", "dropped")
	s := tab.String()
	if strings.Contains(s, "dropped") {
		t.Error("extra cell not dropped")
	}
	if !strings.Contains(s, "only") {
		t.Error("short row lost")
	}
}

func TestGantt(t *testing.T) {
	b := benchdata.Ex1()
	mb, err := b.Modules()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regassign.Bind(b.Graph, mb, regassign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ib, err := interconnect.Bind(b.Graph, mb, rb, nil)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := datapath.Build(b.Graph, mb, rb, ib, 8)
	if err != nil {
		t.Fatal(err)
	}
	chart, err := Gantt(dp)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(chart, "\n"), "\n")
	// Header + 3 registers + 2 modules.
	if len(lines) != 6 {
		t.Fatalf("chart has %d lines:\n%s", len(lines), chart)
	}
	for _, want := range []string{"s1", "R1", "M2", "add1", "mul2"} {
		if !strings.Contains(chart, want) {
			t.Errorf("gantt missing %q:\n%s", want, chart)
		}
	}
	// Every variable appears somewhere in a register row.
	for _, v := range b.Graph.AllocVars() {
		if !strings.Contains(chart, " "+v+" ") && !strings.Contains(chart, " "+v+"\n") {
			t.Errorf("variable %s absent from chart:\n%s", v, chart)
		}
	}
}
