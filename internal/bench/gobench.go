package bench

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one measurement line of `go test -bench` output in the
// machine-readable form recorded in BENCH_results.json.
type BenchResult struct {
	Name        string  `json:"name"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// ParseGoBench extracts benchmark measurements from `go test -bench`
// output. Non-benchmark lines (pkg headers, PASS/ok, test logs) are
// skipped, so the whole tee'd output of `make bench` can be fed through
// unfiltered. Unknown unit columns (e.g. MB/s from b.SetBytes) are
// ignored rather than erroring, keeping the parser open to new metrics.
// The "-N" GOMAXPROCS suffix `go test` appends on multi-core hosts is
// stripped, so names match the baseline on any core count (benchmark
// names must therefore not end in "-<digits>" themselves).
func ParseGoBench(r io.Reader) ([]BenchResult, error) {
	var out []BenchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		runs, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue // "BenchmarkX ... FAIL" and friends
		}
		br := BenchResult{Name: stripProcs(f[0]), Runs: runs}
		for i := 2; i+1 < len(f); i += 2 {
			switch f[i+1] {
			case "ns/op":
				br.NsPerOp, _ = strconv.ParseFloat(f[i], 64)
			case "B/op":
				br.BytesPerOp, _ = strconv.ParseInt(f[i], 10, 64)
			case "allocs/op":
				br.AllocsPerOp, _ = strconv.ParseInt(f[i], 10, 64)
			}
		}
		out = append(out, br)
	}
	return out, sc.Err()
}

// stripProcs removes a trailing "-N" GOMAXPROCS suffix from a benchmark
// name.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// MedianBench collapses repeated measurements of the same benchmark
// (`go test -bench -count=N`) into one result per name carrying the
// element-wise median of each metric. A single timing outlier — a GC
// pause, a scheduler hiccup, a noisy neighbour — then cannot move the
// recorded number, which is what makes the ±tolerance regression gate
// usable on wall-clock benchmarks. Results keep first-appearance order;
// single measurements pass through unchanged.
func MedianBench(results []BenchResult) []BenchResult {
	groups := make(map[string][]BenchResult, len(results))
	var order []string
	for _, r := range results {
		if _, seen := groups[r.Name]; !seen {
			order = append(order, r.Name)
		}
		groups[r.Name] = append(groups[r.Name], r)
	}
	out := make([]BenchResult, 0, len(order))
	for _, name := range order {
		g := groups[name]
		m := BenchResult{Name: name}
		m.Runs = medianInt64(g, func(r BenchResult) int64 { return r.Runs })
		m.NsPerOp = medianFloat64(g, func(r BenchResult) float64 { return r.NsPerOp })
		m.BytesPerOp = medianInt64(g, func(r BenchResult) int64 { return r.BytesPerOp })
		m.AllocsPerOp = medianInt64(g, func(r BenchResult) int64 { return r.AllocsPerOp })
		out = append(out, m)
	}
	return out
}

func medianFloat64(g []BenchResult, get func(BenchResult) float64) float64 {
	vs := make([]float64, len(g))
	for i, r := range g {
		vs[i] = get(r)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func medianInt64(g []BenchResult, get func(BenchResult) int64) int64 {
	vs := make([]int64, len(g))
	for i, r := range g {
		vs[i] = get(r)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// WriteBenchJSON writes results as indented JSON to path.
func WriteBenchJSON(path string, results []BenchResult) error {
	if results == nil {
		results = []BenchResult{}
	}
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
