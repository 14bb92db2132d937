package bist

import (
	"testing"

	"bistpath/internal/benchdata"
	"bistpath/internal/datapath"
	"bistpath/internal/interconnect"
	"bistpath/internal/regassign"
)

// buildRandomDP runs the full allocation pipeline on a generated DFG,
// for the tests and benchmarks that need data paths larger than the
// paper benchmarks.
func buildRandomDP(t testing.TB, cfg benchdata.RandomConfig) *datapath.Datapath {
	t.Helper()
	g, mb, err := benchdata.RandomWithModules(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := regassign.Bind(g, mb, regassign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ib, err := interconnect.Bind(g, mb, rb, regassign.NewSharing(g, mb))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := datapath.Build(g, mb, rb, ib, 8)
	if err != nil {
		t.Fatal(err)
	}
	return dp
}
