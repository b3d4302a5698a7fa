package main

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hcl"
	"hcl/internal/apps/meraculous"
	"hcl/internal/fabric"
)

func TestStreamsFollowSeed(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"kv-remote-shm":  func(s int64) any { return genRemote(s, clients, 1<<10, 1<<10) },
		"kv-local-grow":  func(s int64) any { return genGrow(s, clients, 1<<10) },
		"kmer-async-tcp": func(s int64) any { return genKmer(s, clients, meraculous.GenomeConfig{Length: 1000}) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

func TestStreamsAreWellFormed(t *testing.T) {
	st := genRemote(3, clients, 1<<10, 1<<12)
	finds := 0
	for _, ops := range st.ops {
		for _, op := range ops {
			if len(op.k) != keyLen || (!op.find || op.exact) && (len(op.v) != valLen || op.v[:keyLen] != op.k) {
				t.Fatalf("malformed op %+v", op)
			}
			if op.find {
				finds++
			}
		}
	}
	if share := float64(finds) / float64(clients<<12); share < 0.85 || share > 0.95 {
		t.Errorf("find share %.3f, want about 0.9", share)
	}
	g := genGrow(3, clients, 1<<12)
	if g.size[0]+g.size[1] == 0 || g.ops[0][0].find {
		t.Errorf("grow stream must start with an insert and insert keys: %+v", g.size)
	}
}

// TestTracedProviderTransparent checks that the traced run's decorator
// changes nothing the program can observe: simfab still charges the
// hybrid path and allocations through the wrapper (fabric.AccountantOf
// and ModelOf do not unwrap), and fabric.ArenaOf still finds the shm
// arena.
func TestTracedProviderTransparent(t *testing.T) {
	cm := hcl.DefaultCostModel()
	cm.LocalOpNS += 7 // unlike the default model ModelOf falls back to
	charge := func(p fabric.Provider) int64 {
		clk := fabric.NewClock(0)
		fabric.AccountantOf(p).LocalAccess(clk, 0, 4096, 3)
		return clk.Now()
	}
	want := charge(hcl.NewSimFabric(2, cm))
	wrapped := &tracedProvider{inner: hcl.NewSimFabric(2, cm), rec: &recorder{}}
	if got := charge(wrapped); got != want || want == 0 {
		t.Errorf("hybrid-path charge through the wrapper = %d ns, want %d", got, want)
	}
	if fabric.ModelOf(wrapped) != cm {
		t.Error("ModelOf through the wrapper differs from simfab's cost model")
	}

	shm, err := hcl.NewShmFabric(hcl.ShmConfig{NodeID: 0, Nodes: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer shm.Close()
	if got := fabric.ArenaOf(&tracedProvider{inner: shm, rec: &recorder{}}); got != fabric.SharedArena(shm) {
		t.Errorf("ArenaOf through the wrapper = %v, want the shm fabric", got)
	}
}

// TestTracedMakespanMatchesUntraced runs the isx-sim job with and
// without the decorators: the traced virtual makespan must fall within
// the untraced runs' own spread. With two ranks, simfab's makespan moves
// by up to about 3% with goroutine scheduling, so the spread is taken as
// at least that; losing the hybrid-path charges costs about 28%.
func TestTracedMakespanMatchesUntraced(t *testing.T) {
	in := &isxIn{cfg: isxConfig(5)}
	makespans := func(rec *recorder) []float64 {
		var out []float64
		for i := 0; i < 5; i++ {
			sys, err := in.setup("", rec)
			if err != nil {
				t.Fatal(err)
			}
			tl := &tally{lat: make([][]int64, clients)}
			sys.run(tl)
			if err := sys.verify(tl); err != nil || tl.wrong != nil || tl.failed.Load() != 0 {
				t.Fatalf("isx job failed: %v %v", err, tl.wrong)
			}
			out = append(out, float64(sys.makespanNS()))
			sys.close()
		}
		slices.Sort(out)
		return out
	}
	plain, traced := makespans(nil), makespans(&recorder{})
	mid := median(plain)
	slack := math.Max(plain[len(plain)-1]-plain[0], 0.03*mid)
	if got := median(traced); math.Abs(got-mid) > slack {
		t.Errorf("traced makespan %.0f ns, untraced %.0f ns ± %.0f (runs %v vs %v)", got, mid, slack, traced, plain)
	}
}

// TestRoundsCatchWrongAnswers corrupts one expectation per workload and
// checks that the round fails instead of counting a fast op.
func TestRoundsCatchWrongAnswers(t *testing.T) {
	cases := map[string]func(in inputs){
		"kv-remote-shm": func(in inputs) {
			ops := in.(*remoteIn).st.ops[0]
			for i := range ops {
				if ops[i].exact {
					ops[i].v = valueOf(ops[i].k, 1<<31)
					return
				}
			}
		},
		"kv-local-grow":  func(in inputs) { in.(*growIn).st.size[1]++ },
		"kmer-async-tcp": func(in inputs) { in.(*kmerIn).st.want[in.(*kmerIn).st.codes[1][0]]++ },
		"isx-sim":        nil,
	}
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, rec := range []*recorder{nil, {}} {
				ph := &phase{}
				if err := round(w.gen(1), dir, rec, &tally{lat: make([][]int64, clients)}, ph); err != nil {
					t.Fatal(err)
				}
				if ph.wrong != nil || ph.failed != 0 || ph.attempted == 0 {
					t.Fatalf("traced=%v: wrong=%v failed=%d attempted=%d", rec != nil, ph.wrong, ph.failed, ph.attempted)
				}
			}
			corrupt := cases[w.name]
			if corrupt == nil {
				return
			}
			in := w.gen(1)
			corrupt(in)
			ph := &phase{}
			if err := round(in, dir, nil, &tally{lat: make([][]int64, clients)}, ph); err != nil {
				t.Fatal(err)
			}
			if ph.wrong == nil || !strings.Contains(ph.wrong.Error(), "want") {
				t.Fatalf("corrupted expectation went unnoticed: %v", ph.wrong)
			}
		})
	}
}
