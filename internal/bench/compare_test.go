package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareBench(t *testing.T) {
	base := []BenchResult{
		{Name: "BenchmarkFast", NsPerOp: 50, AllocsPerOp: 2},
		{Name: "BenchmarkSlow", NsPerOp: 10_000, AllocsPerOp: 10},
		{Name: "BenchmarkGone", NsPerOp: 1_000, AllocsPerOp: 1},
	}
	cur := []BenchResult{
		// +40% but only +20ns: under the absolute slack, not a regression.
		{Name: "BenchmarkFast", NsPerOp: 70, AllocsPerOp: 2},
		// +30% ns/op and +5 allocs: both regress.
		{Name: "BenchmarkSlow", NsPerOp: 13_000, AllocsPerOp: 15},
		// New benchmark: ignored until the baseline is refreshed.
		{Name: "BenchmarkNew", NsPerOp: 1, AllocsPerOp: 0},
	}
	regs, missing := CompareBench(base, cur, 0.15)
	if len(missing) != 1 || missing[0] != "BenchmarkGone" {
		t.Fatalf("missing = %v", missing)
	}
	if len(regs) != 2 {
		t.Fatalf("regressions = %v", regs)
	}
	if regs[0].Metric != "allocs/op" || regs[1].Metric != "ns/op" {
		t.Fatalf("unexpected metrics: %v", regs)
	}
}

func TestCompareBenchWithinTolerance(t *testing.T) {
	base := []BenchResult{{Name: "BenchmarkX", NsPerOp: 10_000, AllocsPerOp: 10}}
	cur := []BenchResult{{Name: "BenchmarkX", NsPerOp: 11_400, AllocsPerOp: 11}}
	if regs, missing := CompareBench(base, cur, 0.15); len(regs) != 0 || len(missing) != 0 {
		t.Fatalf("within-tolerance run flagged: %v %v", regs, missing)
	}
}

func TestCompareBenchAllocSlack(t *testing.T) {
	// 2 -> 3 allocs is +50% but inside the one-alloc slack; 2 -> 4 is not.
	base := []BenchResult{{Name: "BenchmarkA", NsPerOp: 10_000, AllocsPerOp: 2}}
	if regs, _ := CompareBench(base, []BenchResult{{Name: "BenchmarkA", NsPerOp: 10_000, AllocsPerOp: 3}}, 0.15); len(regs) != 0 {
		t.Fatalf("one-alloc jitter flagged: %v", regs)
	}
	if regs, _ := CompareBench(base, []BenchResult{{Name: "BenchmarkA", NsPerOp: 10_000, AllocsPerOp: 4}}, 0.15); len(regs) != 1 {
		t.Fatalf("doubled allocs not flagged: %v", regs)
	}
}

func TestMedianBenchCollapsesRepeats(t *testing.T) {
	in := []BenchResult{
		{Name: "BenchmarkA", Runs: 10, NsPerOp: 100, AllocsPerOp: 5},
		{Name: "BenchmarkB", Runs: 1, NsPerOp: 7},
		{Name: "BenchmarkA", Runs: 12, NsPerOp: 900, AllocsPerOp: 5}, // outlier run
		{Name: "BenchmarkA", Runs: 11, NsPerOp: 110, AllocsPerOp: 6},
	}
	out := MedianBench(in)
	if len(out) != 2 {
		t.Fatalf("len = %d, want 2", len(out))
	}
	if out[0].Name != "BenchmarkA" || out[1].Name != "BenchmarkB" {
		t.Fatalf("order not preserved: %+v", out)
	}
	// The 900ns outlier must not survive a median over {100, 110, 900}.
	if out[0].NsPerOp != 110 || out[0].AllocsPerOp != 5 || out[0].Runs != 11 {
		t.Fatalf("median of A = %+v", out[0])
	}
	if out[1].NsPerOp != 7 { // single measurement passes through
		t.Fatalf("single measurement altered: %+v", out[1])
	}
}

func TestMedianBenchEvenCountAverages(t *testing.T) {
	in := []BenchResult{
		{Name: "BenchmarkC", NsPerOp: 100, AllocsPerOp: 4},
		{Name: "BenchmarkC", NsPerOp: 200, AllocsPerOp: 6},
	}
	out := MedianBench(in)
	if len(out) != 1 || out[0].NsPerOp != 150 || out[0].AllocsPerOp != 5 {
		t.Fatalf("even-count median = %+v", out)
	}
}

func TestReadBenchJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	in := []BenchResult{{Name: "BenchmarkX", Runs: 10, NsPerOp: 123, BytesPerOp: 4, AllocsPerOp: 1}}
	if err := WriteBenchJSON(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

// ParseGoBench strips the GOMAXPROCS suffix `go test` adds on multi-core
// hosts, so a 4-core run compares against baseline names; names without
// a suffix (GOMAXPROCS=1) and dashes inside names are left alone.
func TestParseGoBenchStripsProcsSuffix(t *testing.T) {
	out := `goos: linux
BenchmarkUnorderedMapFindRemote-4   	 1000000	      852.3 ns/op	     128 B/op	      12 allocs/op
BenchmarkRoundTrip/mux/64B-16       	  340713	      3725 ns/op	      83 B/op	       1 allocs/op
BenchmarkCuckooInsert               	 1000000	     785.7 ns/op	      91 B/op	       1 allocs/op
BenchmarkFig6a/parts-x-2           	     100	       1.0 ns/op
PASS`
	got, err := ParseGoBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BenchmarkUnorderedMapFindRemote", "BenchmarkRoundTrip/mux/64B", "BenchmarkCuckooInsert", "BenchmarkFig6a/parts-x"}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results: %+v", len(got), got)
	}
	for i, w := range want {
		if got[i].Name != w {
			t.Errorf("result %d name %q, want %q", i, got[i].Name, w)
		}
	}
	base := []BenchResult{{Name: "BenchmarkUnorderedMapFindRemote", NsPerOp: 852.3, AllocsPerOp: 12}}
	if regs, missing := CompareBench(base, got[:1], 0.25); len(regs) != 0 || len(missing) != 0 {
		t.Fatalf("suffixed result did not match its baseline: regressions %v, missing %v", regs, missing)
	}
}
