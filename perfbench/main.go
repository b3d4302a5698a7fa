// Command perfbench is the repository benchmark: container operations
// over the shm and tcp transports, co-located growth, and ISx on simfab,
// driven through the public hcl API by closed-loop clients. See
// README.md in this directory.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--workdir dir]
//
// The last line of standard output is the result object; the line
// before it is a report with provenance and sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// A round sets up a fresh system, runs every client's stream once (the
// timed part), verifies the outcome and tears the system down. A run
// repeats rounds for the time budget and reports medians over rounds, so
// every round replays the same fixed op count.
const (
	minRounds = 3
	// Rounds with fewer latency samples than this (an ISx job is one)
	// pool their samples; larger rounds report the median of per-round
	// percentiles.
	minRoundSamples = 1000
)

// phase is the outcome of one measured sequence of rounds.
type phase struct {
	rounds            int
	attempted, failed int64
	wrong             error

	opsPerS, cpuUSPerOp, allocsPerOp, allocBytesPerOp []float64
	heapPerKey, makespanMS, setupS, p50, p99          []float64
	pooled                                            []int64
	samples                                           int

	// Totals over the timed parts.
	gc  procSnap // only the gc fields and totalCPU are summed
	rec recSnap
	ctr layerCounters
}

func (ph *phase) addGC(after, before procSnap) {
	ph.gc.gcCycles += after.gcCycles - before.gcCycles
	ph.gc.gcPauseNS += after.gcPauseNS - before.gcPauseNS
	ph.gc.gcCPU += after.gcCPU - before.gcCPU
	ph.gc.totalCPU += after.totalCPU - before.totalCPU
}

// round runs one round and records it into ph.
func round(in inputs, dir string, rec *recorder, t *tally, ph *phase) error {
	base := liveHeap()
	t0 := time.Now()
	sys, err := in.setup(dir, rec)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(t0)
	defer sys.close()

	t.reset(rec)
	var r0 recSnap
	if rec != nil {
		r0 = rec.snap()
	}
	c0, p0 := sys.counters(), readProc()
	t1 := time.Now()
	sys.run(t)
	wall := time.Since(t1)
	p1, c1 := readProc(), sys.counters()
	if err := sys.verify(t); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	live := liveHeap()

	ops := float64(t.attempts.Load())
	ph.rounds++
	ph.attempted += t.attempts.Load()
	ph.failed += t.failed.Load()
	if ph.wrong == nil {
		ph.wrong = t.wrong
	}
	ph.addGC(p1, p0)
	if rec != nil {
		r1 := rec.snap()
		for i := range r1 {
			ph.rec[i] += r1[i] - r0[i]
		}
		ph.ctr.addDelta(c1, c0)
	}
	ph.opsPerS = append(ph.opsPerS, ops/wall.Seconds())
	ph.cpuUSPerOp = append(ph.cpuUSPerOp, float64(p1.cpuNS-p0.cpuNS)/1e3/ops)
	ph.allocsPerOp = append(ph.allocsPerOp, float64(p1.mallocs-p0.mallocs)/ops)
	ph.allocBytesPerOp = append(ph.allocBytesPerOp, float64(p1.allocBytes-p0.allocBytes)/ops)
	ph.heapPerKey = append(ph.heapPerKey, (float64(live)-float64(base))/float64(sys.keys()))
	ph.setupS = append(ph.setupS, setup.Seconds())
	ms := float64(wall) / 1e6
	if v := sys.makespanNS(); v > 0 {
		ms = float64(v) / 1e6
	}
	ph.makespanMS = append(ph.makespanMS, ms)

	var lat []int64
	for _, l := range t.lat {
		lat = append(lat, l...)
	}
	ph.samples += len(lat)
	if len(lat) < minRoundSamples {
		ph.pooled = append(ph.pooled, lat...)
	} else {
		p50, p99 := latQuantiles(lat)
		ph.p50 = append(ph.p50, p50)
		ph.p99 = append(ph.p99, p99)
	}
	return nil
}

// measure runs one warm-up round, whose figures are dropped but whose
// answers are checked, then measured rounds until budget has passed
// (set-up and verification included).
func measure(in inputs, dir string, rec *recorder, budget time.Duration) (*phase, error) {
	t := &tally{lat: make([][]int64, clients)}
	warm := &phase{}
	if err := round(in, dir, rec, t, warm); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	ph := &phase{wrong: warm.wrong}
	start := time.Now()
	for ph.rounds < minRounds || time.Since(start) < budget {
		if err := round(in, dir, rec, t, ph); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

func (ph *phase) latencies() (p50, p99 float64) {
	if len(ph.pooled) > 0 {
		return latQuantiles(ph.pooled)
	}
	return median(ph.p50), median(ph.p99)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is the untraced result: each metric is a median over rounds.
// The p99 latency is not among them: it follows the host's speed too
// closely to be held to a bound (README.md), so it is reported apart.
func endToEnd(ph *phase) map[string]metric {
	p50, _ := ph.latencies()
	return map[string]metric{
		"ops_per_s":          {median(ph.opsPerS), "1/s"},
		"lat_p50_us":         {p50, "us"},
		"cpu_us_per_op":      {median(ph.cpuUSPerOp), "us"},
		"allocs_per_op":      {median(ph.allocsPerOp), "count"},
		"alloc_bytes_per_op": {median(ph.allocBytesPerOp), "B"},
		"heap_bytes_per_key": {median(ph.heapPerKey), "B"},
		"makespan_ms":        {median(ph.makespanMS), "ms"},
		"setup_s":            {median(ph.setupS), "s"},
	}
}

// perLayer derives the layer metrics from the traced phase's totals, and
// the Go runtime's and the tail latency from the untraced phase, which
// tracing cannot skew.
func perLayer(plain, tr *phase) map[string]metric {
	_, p99 := plain.latencies()
	r := tr.rec
	ops := float64(tr.attempted)
	f := func(s stat) float64 { return float64(r[s]) }
	perOp := func(v float64) float64 { return ratio(v, ops) }
	m := map[string]metric{
		"fabric.roundtrip.calls_per_op":      {perOp(f(rtCalls)), "calls/op"},
		"fabric.roundtrip.ns_per_call":       {ratio(f(rtNS), f(rtCalls)), "ns/call"},
		"fabric.transport_self_ns_per_call":  {ratio(f(rtNS)-f(dispatchNS), f(rtCalls)), "ns/call"},
		"fabric.req_bytes_per_op":            {perOp(f(reqBytes)), "B/op"},
		"fabric.resp_bytes_per_op":           {perOp(f(respBytes)), "B/op"},
		"fabric.shm.spins_per_op":            {perOp(tr.ctr.shmSpins), "count/op"},
		"fabric.shm.wakeups_per_op":          {perOp(tr.ctr.shmWakeups), "count/op"},
		"fabric.tcp.frames_coalesced_per_op": {perOp(tr.ctr.tcpCoalesced), "count/op"},
		"simfab.vt_roundtrip_ns_per_call":    {ratio(f(vtRTNS), f(rtCalls)), "ns/call"},
		"simfab.nic_busy_ns_per_op":          {perOp(tr.ctr.nicBusyNS), "ns/op"},
		"ror.dispatch.calls_per_op":          {perOp(f(dispatchCalls)), "calls/op"},
		"ror.dispatch.ns_per_call":           {ratio(f(dispatchNS), f(dispatchCalls)), "ns/call"},
		"ror.future.wait_ns_per_op":          {perOp(f(waitNS)), "ns/op"},
		"databox.encode.calls_per_op":        {perOp(f(encodeCalls)), "calls/op"},
		"databox.encode.ns_per_call":         {ratio(f(encodeNS), f(encodeCalls)), "ns/call"},
		"databox.encode.bytes_per_op":        {perOp(f(encodeBytes)), "B/op"},
		"databox.decode.calls_per_op":        {perOp(f(decodeCalls)), "calls/op"},
		"databox.decode.ns_per_call":         {ratio(f(decodeNS), f(decodeCalls)), "ns/call"},
		"gc.cycles_per_mop":                  {ratio(float64(plain.gc.gcCycles)*1e6, float64(plain.attempted)), "count/Mop"},
		"gc.pause_ns_per_op":                 {ratio(float64(plain.gc.gcPauseNS), float64(plain.attempted)), "ns/op"},
		"gc.cpu_fraction":                    {ratio(plain.gc.gcCPU, plain.gc.totalCPU), "ratio"},
		"trace.overhead_ratio":               {ratio(median(plain.opsPerS), median(tr.opsPerS)), "ratio"},
		"tail.lat_p99_us":                    {p99, "us"},
	}
	var callNS, calls float64
	for v := verb(0); v < numVerbs; v++ {
		n, ns := f(verbCalls+2*stat(v)), f(verbCalls+2*stat(v)+1)
		m["core."+verbNames[v]+".ns_per_op"] = metric{ratio(ns, n), "ns/op"}
		callNS += ns
		calls += n
	}
	// A client's own time in its container calls: the call minus the
	// round trips it waited on and the client-side codec work. Zero
	// where the workload times no container call (ISx runs inside the
	// application).
	self := 0.0
	if calls > 0 {
		self = (callNS - f(rtSyncNS) - f(clientCodecNS)) / calls
	}
	m["core.client_self_ns_per_op"] = metric{self, "ns/op"}
	return m
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (kv-remote-shm, kv-local-grow, kmer-async-tcp, isx-sim)")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same op streams")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for shared-memory files")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, budget time.Duration, traced bool, workdir string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	in := w.gen(seed)

	var phases []*phase
	var metrics map[string]metric
	if !traced {
		ph, err := measure(in, workdir, nil, budget)
		if err != nil {
			return err
		}
		phases, metrics = []*phase{ph}, endToEnd(ph)
	} else {
		plain, err := measure(in, workdir, nil, budget/2)
		if err != nil {
			return err
		}
		tr, err := measure(in, workdir, &recorder{}, budget/2)
		if err != nil {
			return err
		}
		phases, metrics = []*phase{plain, tr}, perLayer(plain, tr)
	}

	res := result{Correct: true, Metrics: metrics}
	report := map[string]any{"provenance": provenance(name, seed), "traced": traced}
	var rounds, samples []int
	var perRound [][]float64
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		if ph.wrong != nil {
			res.Correct = false
			report["wrong"] = ph.wrong.Error()
		}
		rounds = append(rounds, ph.rounds)
		samples = append(samples, ph.samples)
		perRound = append(perRound, ph.opsPerS)
	}
	report["rounds"], report["lat_samples"], report["round_ops_per_s"] = rounds, samples, perRound
	_, report["lat_p99_us"] = phases[0].latencies()
	report["fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	if name == "isx-sim" {
		report["vt_makespan_ms"] = median(phases[0].makespanMS)
	}
	if traced {
		report["untraced_e2e"] = endToEnd(phases[0])
		report["traced_e2e"] = endToEnd(phases[1])
		// Counted but not metrics: no default container path issues a
		// one-sided verb, and fabric errors show in failed.
		report["fabric_onesided_calls"] = phases[1].rec[oneSidedCalls]
		report["fabric_errors"] = phases[1].rec[fabricErrors]
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(report); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", report["wrong"])
	}
	return nil
}
