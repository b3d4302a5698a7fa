package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hcl"
	"hcl/internal/apps/isx"
	"hcl/internal/apps/meraculous"
	"hcl/internal/fabric"
	"hcl/internal/fabric/tcpfab"
	"hcl/internal/metrics"
)

const clients = 2 // closed-loop client ranks in every workload

// A workload generates its inputs once per run and then sets up fresh
// systems, one per round.
type workload struct {
	name string
	// gen builds the run's inputs from the seed.
	gen func(seed int64) inputs
}

type inputs interface {
	// setup builds a fresh system over these inputs in dir. rec is nil
	// for untraced rounds.
	setup(dir string, rec *recorder) (system, error)
}

// system is one set-up instance of a workload.
type system interface {
	// run drives every client through its stream once: the timed part.
	run(t *tally)
	// verify checks the final state against the streams.
	verify(t *tally) error
	// keys reports how many keys the containers hold after run.
	keys() int
	// makespanNS is the round's time to solution when it differs from
	// the wall time of run (simfab virtual time); 0 otherwise.
	makespanNS() int64
	// counters reads the transport counters of a traced system.
	counters() layerCounters
	close()
}

// layerCounters are the program's own exported counters.
type layerCounters struct{ shmSpins, shmWakeups, tcpCoalesced, nicBusyNS float64 }

// addDelta adds the counts between two readings.
func (a *layerCounters) addDelta(after, before layerCounters) {
	a.shmSpins += after.shmSpins - before.shmSpins
	a.shmWakeups += after.shmWakeups - before.shmWakeups
	a.tcpCoalesced += after.tcpCoalesced - before.tcpCoalesced
	a.nicBusyNS += after.nicBusyNS - before.nicBusyNS
}

func readCounters(col *metrics.Collector, nodes int) layerCounters {
	var c layerCounters
	if col == nil {
		return c
	}
	for n := 0; n < nodes; n++ {
		c.shmSpins += col.Total(metrics.ShmSpins, n)
		c.shmWakeups += col.Total(metrics.ShmWakeups, n)
		c.tcpCoalesced += col.Total(metrics.FramesCoalesced, n)
		c.nicBusyNS += col.Total(metrics.NICBusyNS, n)
	}
	return c
}

// tally collects one round's outcome from concurrent clients.
type tally struct {
	lat      [][]int64 // per-client latency samples (ns), reused across rounds
	attempts atomic.Int64
	failed   atomic.Int64
	rec      *recorder

	mu    sync.Mutex
	wrong error // first wrong answer
}

func (t *tally) reset(rec *recorder) {
	for c := range t.lat {
		t.lat[c] = t.lat[c][:0]
	}
	t.attempts.Store(0)
	t.failed.Store(0)
	t.rec = rec
	t.wrong = nil
}

// done records one op's outcome and latency.
func (t *tally) done(client int, v verb, d time.Duration, err error) bool {
	t.attempts.Add(1)
	t.lat[client] = append(t.lat[client], int64(d))
	if t.rec != nil {
		t.rec.verb(v, d)
	}
	if err != nil {
		t.failed.Add(1)
		return false
	}
	return true
}

func (t *tally) mismatch(format string, args ...any) {
	t.mu.Lock()
	if t.wrong == nil {
		t.wrong = fmt.Errorf(format, args...)
	}
	t.mu.Unlock()
}

// traced returns the provider and codec option a traced system uses; an
// untraced system gets p back and no option.
func traced(p fabric.Provider, rec *recorder, sync, client bool) (fabric.Provider, []hcl.Option) {
	if rec == nil {
		return p, nil
	}
	return &tracedProvider{inner: p, rec: rec, sync: sync, virtual: p.Name() == "sim"},
		[]hcl.Option{hcl.WithCodec(tracedCodec{inner: hcl.CodecBinc(), rec: rec, client: client})}
}

func collectorIf(rec *recorder) *metrics.Collector {
	if rec == nil {
		return nil
	}
	return hcl.NewMetrics(1e9)
}

// newRuntime builds a runtime with no engine collector. A traced system
// attaches a collector to its fabric only to read the transport's own
// counters; core wires that collector into the RoR engine too, whose
// per-call histograms would then weigh on every layer the trace times.
func newRuntime(w *hcl.World) *hcl.Runtime {
	rt := hcl.NewRuntime(w)
	rt.Engine().SetCollector(nil)
	return rt
}

// Round sizes. A round of each workload takes 0.7 to 1 s on a 2-vCPU
// Xeon; an isx-sim job about 14 ms.
const (
	remoteKeys = 1 << 16
	remoteOps  = 1 << 16 // per client per round
	growOps    = 1 << 17 // per client per round
	isxKeys    = 1 << 12 // ISx keys per rank
	// kmerWindow is how many MergeAsync futures each client keeps in
	// flight: tcpfab's default server worker pool size, so each client
	// alone can keep every worker busy.
	kmerWindow = 8
)

// kmerGenome is the genome each kmer-async-tcp run counts: the defaults
// of the meraculous command (10,000 bases, 100-base reads, coverage 8,
// no read errors), about 32,000 k-mer merges per client per round.
var kmerGenome = meraculous.GenomeConfig{Length: 10_000, ReadLen: 100, Coverage: 8}

// --- kv-remote-shm -------------------------------------------------------

type remoteIn struct{ st remoteStreams }

type remoteSys struct {
	in     *remoteIn
	f0, f1 *hcl.ShmFabric
	w0     *hcl.World
	m0     *hcl.UnorderedMap[string, string]
	m1     *hcl.UnorderedMap[string, string]
	r1     *hcl.Rank
	col    *metrics.Collector
	dir    string
}

// setup wires two in-process shmfab nodes as the shm harness shard does:
// inline-safe handlers, clients on node 0, partitions on node 1, and the
// symmetric container construction on both nodes. The serving node's
// own rank preloads the keys over the hybrid path.
func (in *remoteIn) setup(dir string, rec *recorder) (system, error) {
	d, err := os.MkdirTemp(dir, "shm-")
	if err != nil {
		return nil, err
	}
	s := &remoteSys{in: in, dir: d, col: collectorIf(rec)}
	if s.f0, err = hcl.NewShmFabric(hcl.ShmConfig{NodeID: 0, Nodes: 2, Dir: d, InlineHandlers: true, Collector: s.col}); err != nil {
		s.close()
		return nil, err
	}
	if s.f1, err = hcl.NewShmFabric(hcl.ShmConfig{NodeID: 1, Nodes: 2, Dir: d, InlineHandlers: true, Collector: s.col}); err != nil {
		s.close()
		return nil, err
	}
	p0, o0 := traced(s.f0, rec, true, true)
	p1, o1 := traced(s.f1, rec, true, false)
	srv := hcl.WithServers([]int{1})
	s.w0 = hcl.MustWorld(p0, hcl.OnNode(0, clients))
	if s.m0, err = hcl.NewUnorderedMap[string, string](newRuntime(s.w0), "kv", append(o0, srv)...); err != nil {
		s.close()
		return nil, err
	}
	w1 := hcl.MustWorld(p1, hcl.OnNode(1, 1))
	if s.m1, err = hcl.NewUnorderedMap[string, string](newRuntime(w1), "kv", append(o1, srv)...); err != nil {
		s.close()
		return nil, err
	}
	s.r1 = w1.Rank(0)
	for i, k := range in.st.keys {
		if _, err := s.m1.Insert(s.r1, k, in.st.preload[i]); err != nil {
			s.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return s, nil
}

func (s *remoteSys) run(t *tally) {
	s.w0.Run(func(r *hcl.Rank) {
		c := r.ID()
		for _, op := range s.in.st.ops[c] {
			t0 := time.Now()
			if !op.find {
				_, err := s.m0.Insert(r, op.k, op.v)
				t.done(c, verbInsert, time.Since(t0), err)
				continue
			}
			v, ok, err := s.m0.Find(r, op.k)
			if t.done(c, verbFind, time.Since(t0), err) {
				checkFind(t, op, v, ok)
			}
		}
	})
}

// checkFind checks a find of a written key: the exact latest value for
// the client's own keys, a value carrying the key for everyone else's.
func checkFind(t *tally, op kvOp, v string, ok bool) {
	switch {
	case !ok:
		t.mismatch("find %q: key missing", op.k)
	case op.exact && v != op.v:
		t.mismatch("find %q = %q, want %q", op.k, v, op.v)
	case len(v) != valLen || v[:keyLen] != op.k:
		t.mismatch("find %q = %q: value of another key", op.k, v)
	}
}

func (s *remoteSys) verify(t *tally) error {
	n, err := s.m1.Size(s.r1)
	if err != nil {
		return err
	}
	if n != len(s.in.st.keys) {
		t.mismatch("size %d after overwrites, want %d", n, len(s.in.st.keys))
	}
	return nil
}

func (s *remoteSys) keys() int               { return len(s.in.st.keys) }
func (s *remoteSys) makespanNS() int64       { return 0 }
func (s *remoteSys) counters() layerCounters { return readCounters(s.col, 2) }

func (s *remoteSys) close() {
	if s.f0 != nil {
		s.f0.Close()
	}
	if s.f1 != nil {
		s.f1.Close()
	}
	os.RemoveAll(s.dir)
}

// --- kv-local-grow -------------------------------------------------------

type growIn struct{ st growStreams }

type growSys struct {
	in  *growIn
	f   *hcl.ShmFabric
	w   *hcl.World
	um  *hcl.UnorderedMap[string, string]
	om  *hcl.Map[string, string]
	dir string
}

// setup places both containers and both clients on the one node of a
// shmfab world, so every op takes the hybrid path.
func (in *growIn) setup(dir string, rec *recorder) (system, error) {
	d, err := os.MkdirTemp(dir, "shm-")
	if err != nil {
		return nil, err
	}
	s := &growSys{in: in, dir: d}
	if s.f, err = hcl.NewShmFabric(hcl.ShmConfig{NodeID: 0, Nodes: 1, Dir: d, InlineHandlers: true, Collector: collectorIf(rec)}); err != nil {
		s.close()
		return nil, err
	}
	p, o := traced(s.f, rec, true, true)
	s.w = hcl.MustWorld(p, hcl.OnNode(0, clients))
	rt := newRuntime(s.w)
	if s.um, err = hcl.NewUnorderedMap[string, string](rt, "grow.u", o...); err != nil {
		s.close()
		return nil, err
	}
	if s.om, err = hcl.NewMap[string, string](rt, "grow.o", hcl.NaturalLess[string](), o...); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *growSys) run(t *tally) {
	s.w.Run(func(r *hcl.Rank) {
		c := r.ID()
		for _, op := range s.in.st.ops[c] {
			var (
				v     string
				ok    bool
				err   error
				t0    = time.Now()
				unord = op.c == 0
				vb    = verbInsert
			)
			switch {
			case op.find && unord:
				v, ok, err = s.um.Find(r, op.k)
			case op.find:
				v, ok, err = s.om.Find(r, op.k)
			case unord:
				_, err = s.um.Insert(r, op.k, op.v)
			default:
				_, err = s.om.Insert(r, op.k, op.v)
			}
			if op.find {
				vb = verbFind
			}
			if t.done(c, vb, time.Since(t0), err) && op.find {
				checkFind(t, op, v, ok)
			}
		}
	})
}

func (s *growSys) verify(t *tally) error {
	r := s.w.Rank(0)
	nu, err1 := s.um.Size(r)
	no, err2 := s.om.Size(r)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	if nu != s.in.st.size[0] || no != s.in.st.size[1] {
		t.mismatch("sizes unordered=%d ordered=%d, want %d and %d", nu, no, s.in.st.size[0], s.in.st.size[1])
	}
	return nil
}

func (s *growSys) keys() int               { return s.in.st.size[0] + s.in.st.size[1] }
func (s *growSys) makespanNS() int64       { return 0 }
func (s *growSys) counters() layerCounters { return readCounters(s.f.Collector(), 1) }

func (s *growSys) close() {
	if s.f != nil {
		s.f.Close()
	}
	os.RemoveAll(s.dir)
}

// --- kmer-async-tcp ------------------------------------------------------

type kmerIn struct{ st kmerStreams }

type kmerSys struct {
	in     *kmerIn
	f0, f1 *tcpfab.Fabric
	w0     *hcl.World
	m0, m1 *hcl.UnorderedMap[uint64, uint32]
	r1     *hcl.Rank
	col    *metrics.Collector
}

func sum(old, in uint32) uint32 { return old + in }

// setup wires two in-process tcpfab nodes over loopback with the
// multiplexed transport, as the tcp harness shard does: clients on node
// 0, partitions on node 1.
func (in *kmerIn) setup(_ string, rec *recorder) (system, error) {
	s := &kmerSys{in: in, col: collectorIf(rec)}
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	var err error
	if s.f0, err = hcl.NewTCPFabric(hcl.TCPConfig{NodeID: 0, Addrs: addrs, Collector: s.col}); err != nil {
		return nil, err
	}
	if s.f1, err = hcl.NewTCPFabric(hcl.TCPConfig{NodeID: 1, Addrs: addrs, Collector: s.col}); err != nil {
		s.close()
		return nil, err
	}
	live := []string{s.f0.Addr(), s.f1.Addr()}
	s.f0.SetAddrs(live)
	s.f1.SetAddrs(live)
	// Merges are issued asynchronously: their round trips run on future
	// goroutines, outside the client's calls.
	p0, o0 := traced(s.f0, rec, false, true)
	p1, o1 := traced(s.f1, rec, false, false)
	srv := hcl.WithServers([]int{1})
	s.w0 = hcl.MustWorld(p0, hcl.OnNode(0, clients))
	if s.m0, err = hcl.NewUnorderedMap[uint64, uint32](newRuntime(s.w0), "kmer", append(o0, srv)...); err != nil {
		s.close()
		return nil, err
	}
	w1 := hcl.MustWorld(p1, hcl.OnNode(1, 1))
	if s.m1, err = hcl.NewUnorderedMap[uint64, uint32](newRuntime(w1), "kmer", append(o1, srv)...); err != nil {
		s.close()
		return nil, err
	}
	s.m0.SetMerge(sum)
	s.m1.SetMerge(sum)
	s.r1 = w1.Rank(0)
	// Dial the client's connection to the serving node before timing.
	if _, err := s.m0.Size(s.w0.Rank(0)); err != nil {
		s.close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	return s, nil
}

func (s *kmerSys) run(t *tally) {
	s.w0.Run(func(r *hcl.Rank) {
		c := r.ID()
		type slot struct {
			f  *hcl.Future[bool]
			t0 time.Time
		}
		var win [kmerWindow]slot
		wait := func(sl *slot) {
			w0 := time.Now()
			_, err := sl.f.Wait(r)
			end := time.Now()
			if t.rec != nil {
				t.rec.add(waitNS, int64(end.Sub(w0)))
			}
			t.attempts.Add(1)
			t.lat[c] = append(t.lat[c], int64(end.Sub(sl.t0)))
			if err != nil {
				t.failed.Add(1)
			}
			sl.f = nil
		}
		codes := s.in.st.codes[c]
		for i, code := range codes {
			sl := &win[i%kmerWindow]
			if sl.f != nil {
				wait(sl)
			}
			sl.t0 = time.Now()
			sl.f = s.m0.MergeAsync(r, code, 1)
			if t.rec != nil {
				t.rec.verb(verbMerge, time.Since(sl.t0))
			}
		}
		for i := range win {
			if sl := &win[(len(codes)+i)%kmerWindow]; sl.f != nil {
				wait(sl)
			}
		}
	})
}

// verify reads the serving partition in place and checks every count
// against the stream, and the total against the acknowledged merges.
func (s *kmerSys) verify(t *tally) error {
	part := s.m1.LocalPartition(s.r1)
	var total uint64
	seen := make(map[uint64]bool, len(s.in.st.want))
	part.Range(func(k uint64, v uint32) bool {
		total += uint64(v)
		switch want := s.in.st.want[k]; {
		case seen[k]:
			t.mismatch("k-mer %#x stored in more than one entry", k)
		case v != want:
			t.mismatch("count of k-mer %#x = %d, want %d", k, v, want)
		}
		seen[k] = true
		return true
	})
	if acked := uint64(t.attempts.Load() - t.failed.Load()); total != acked {
		t.mismatch("merged counts sum to %d, want %d acknowledged merges", total, acked)
	}
	if len(seen) != len(s.in.st.want) {
		t.mismatch("%d distinct k-mers stored, want %d", len(seen), len(s.in.st.want))
	}
	return nil
}

func (s *kmerSys) keys() int               { return s.m1.LocalPartition(s.r1).Len() }
func (s *kmerSys) makespanNS() int64       { return 0 }
func (s *kmerSys) counters() layerCounters { return readCounters(s.col, 2) }

func (s *kmerSys) close() {
	if s.f0 != nil {
		s.f0.Close()
	}
	if s.f1 != nil {
		s.f1.Close()
	}
}

// --- isx-sim -------------------------------------------------------------

type isxIn struct{ cfg isx.Config }

// isxConfig is the job each isx-sim round runs. ISx draws its keys from
// the seed inside the application, so the seed is its whole input.
func isxConfig(seed int64) isx.Config { return isx.Config{KeysPerRank: isxKeys, Seed: seed} }

type isxSys struct {
	in   *isxIn
	w    *hcl.World
	rt   *hcl.Runtime
	col  *metrics.Collector
	res  isx.Result
	prov fabric.Provider
}

// setup builds a 2-node simfab with one rank per node. Each round is one
// ISx job: RunHCL builds its priority queues, exchanges the keys with
// PushMulti batches and drains the sorted buckets.
func (in *isxIn) setup(_ string, rec *recorder) (system, error) {
	s := &isxSys{in: in, col: collectorIf(rec)}
	sim := hcl.NewSimFabric(2, hcl.DefaultCostModel())
	if s.col != nil {
		sim = hcl.NewSimFabric(2, hcl.DefaultCostModel(), hcl.WithCollector(s.col))
	}
	s.prov, _ = traced(sim, rec, true, true)
	s.w = hcl.MustWorld(s.prov, hcl.Block(2, 2))
	s.rt = newRuntime(s.w)
	return s, nil
}

func (s *isxSys) run(t *tally) {
	t0 := time.Now()
	res, err := isx.RunHCL(s.rt, s.w, s.in.cfg)
	d := time.Since(t0)
	s.res = res
	t.lat[0] = append(t.lat[0], int64(d))
	n := int64(s.w.NumRanks() * s.in.cfg.KeysPerRank)
	t.attempts.Add(n)
	if err != nil {
		t.failed.Add(n)
	}
}

func (s *isxSys) verify(t *tally) error {
	if want := s.w.NumRanks() * s.in.cfg.KeysPerRank; !s.res.Sorted || s.res.TotalKeys != want {
		t.mismatch("isx: sorted=%v total=%d, want sorted and %d keys", s.res.Sorted, s.res.TotalKeys, want)
	}
	return nil
}

func (s *isxSys) keys() int               { return s.w.NumRanks() * s.in.cfg.KeysPerRank }
func (s *isxSys) makespanNS() int64       { return int64(s.res.Makespan) }
func (s *isxSys) counters() layerCounters { return readCounters(s.col, 2) }
func (s *isxSys) close()                  { s.prov.Close() }

var workloads = []workload{
	{"kv-remote-shm", func(seed int64) inputs {
		return &remoteIn{genRemote(seed, clients, remoteKeys, remoteOps)}
	}},
	{"kv-local-grow", func(seed int64) inputs { return &growIn{genGrow(seed, clients, growOps)} }},
	{"kmer-async-tcp", func(seed int64) inputs {
		return &kmerIn{genKmer(seed, clients, kmerGenome)}
	}},
	{"isx-sim", func(seed int64) inputs { return &isxIn{isxConfig(seed)} }},
}
