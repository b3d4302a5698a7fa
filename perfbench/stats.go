package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted xs, interpolating linearly
// between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// latQuantiles returns the p50 and p99 of ns samples, in microseconds.
func latQuantiles(samples []int64) (p50, p99 float64) {
	s := make([]float64, len(samples))
	for i, v := range samples {
		s[i] = float64(v) / 1e3
	}
	slices.Sort(s)
	return quantile(s, 0.50), quantile(s, 0.99)
}

// ratio divides, reading 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSnap is the process-wide state read around a round's timed part.
type procSnap struct {
	mallocs, allocBytes, gcCycles, gcPauseNS uint64
	cpuNS                                    int64
	gcCPU, totalCPU                          float64 // runtime/metrics CPU-seconds estimates
}

var cpuSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	rtmetrics.Read(cpuSamples)
	return procSnap{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   uint64(ms.NumGC),
		gcPauseNS:  ms.PauseTotalNs,
		cpuNS:      ru.Utime.Nano() + ru.Stime.Nano(),
		gcCPU:      cpuSamples[0].Value.Float64(),
		totalCPU:   cpuSamples[1].Value.Float64(),
	}
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// provenance identifies what produced a result. The revision and dirty
// flag come from the VCS stamp of the build; outside a git checkout they
// read "unknown".
func provenance(workload string, seed int64) map[string]any {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"git_rev":    rev,
		"git_dirty":  dirty,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"workload":   workload,
		"seed":       seed,
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
