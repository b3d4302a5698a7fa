package core

import (
	"fmt"
	"testing"

	"hcl/internal/cluster"
	"hcl/internal/fabric"
	"hcl/internal/fabric/shmfab"
	"hcl/internal/fabric/simfab"
)

// Allocation budgets of the container hot paths, counted with
// testing.AllocsPerRun over every goroutine of the process: client and
// server side of the call, plus the transport. A change that adds a heap
// allocation to a remote Find/Insert or to the co-located insert fails
// here and names the path. The ceilings are exact: what remains is the
// bytes a call must produce (the encoded request, the decoded key and
// value, the reply, the stored entry, the client's copy of the reply).

// allocsWorlds builds a client world (one rank on node 0) and a server
// world whose node 1 hosts the partition, over the named transport. On
// simfab both are the same world; on shmfab they are two in-process
// nodes with inline handlers, as in the shm harness shard.
func allocsWorlds(t *testing.T, transport string) (client, server *cluster.World) {
	t.Helper()
	switch transport {
	case "sim":
		prov := simfab.New(2, fabric.DefaultCostModel())
		t.Cleanup(func() { prov.Close() })
		w := cluster.MustWorld(prov, []int{0, 1})
		return w, w
	case "shm":
		dir := t.TempDir()
		f0, err := shmfab.New(shmfab.Config{NodeID: 0, Nodes: 2, Dir: dir, InlineHandlers: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f0.Close() })
		f1, err := shmfab.New(shmfab.Config{NodeID: 1, Nodes: 2, Dir: dir, InlineHandlers: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f1.Close() })
		return cluster.MustWorld(f0, cluster.OnNode(0, 1)), cluster.MustWorld(f1, cluster.OnNode(1, 1))
	}
	t.Fatalf("unknown transport %q", transport)
	return nil, nil
}

// remoteMaps builds the same map on the client and server worlds, with
// its one partition on node 1, and preloads keys from the serving rank.
func remoteMaps[K comparable, V any](t *testing.T, transport string, keys []K, val func(K) V) (*UnorderedMap[K, V], *cluster.Rank) {
	t.Helper()
	cw, sw := allocsWorlds(t, transport)
	srv := WithServers([]int{1})
	mc, err := NewUnorderedMap[K, V](NewRuntime(cw), "allocs", srv)
	if err != nil {
		t.Fatal(err)
	}
	ms := mc
	if sw != cw {
		if ms, err = NewUnorderedMap[K, V](NewRuntime(sw), "allocs", srv); err != nil {
			t.Fatal(err)
		}
	}
	rs := sw.RanksOnNode(1)[0]
	for _, k := range keys {
		if _, err := ms.Insert(rs, k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	return mc, cw.RanksOnNode(0)[0]
}

const allocsRuns = 500

func TestAllocBudgetRemote(t *testing.T) {
	skipUnderRace(t)
	strKeys := make([]string, 64)
	strVals := make(map[string]string, len(strKeys))
	for i := range strKeys {
		strKeys[i] = fmt.Sprintf("key-%011d", i)
		strVals[strKeys[i]] = strKeys[i] + "-value-of-48-bytes-xxxxxxxxxxxxxxxxxxxxxx"
	}
	strVal := func(k string) string { return strVals[k] }
	intKeys := make([]int, 64)
	for i := range intKeys {
		intKeys[i] = i
	}
	intVal := func(k int) int { return 3 * k }

	cases := []struct {
		transport string
		keys      string
		find, ins float64 // ceilings, allocs per op
	}{
		{"sim", "string", 3, 4},
		{"sim", "int", 1, 2},
		{"shm", "string", 4, 5},
		{"shm", "int", 2, 3},
	}
	for _, c := range cases {
		t.Run(c.transport+"/"+c.keys, func(t *testing.T) {
			var find, ins func(i int) error
			switch c.keys {
			case "string":
				m, r := remoteMaps(t, c.transport, strKeys, strVal)
				find = func(i int) error {
					k := strKeys[i%len(strKeys)]
					v, ok, err := m.Find(r, k)
					if err == nil && (!ok || v != strVal(k)) {
						err = fmt.Errorf("find %q = %q,%v", k, v, ok)
					}
					return err
				}
				ins = func(i int) error {
					k := strKeys[i%len(strKeys)]
					_, err := m.Insert(r, k, strVal(k))
					return err
				}
			case "int":
				m, r := remoteMaps(t, c.transport, intKeys, intVal)
				find = func(i int) error {
					k := intKeys[i%len(intKeys)]
					v, ok, err := m.Find(r, k)
					if err == nil && (!ok || v != intVal(k)) {
						err = fmt.Errorf("find %d = %d,%v", k, v, ok)
					}
					return err
				}
				ins = func(i int) error {
					_, err := m.Insert(r, intKeys[i%len(intKeys)], i)
					return err
				}
			}
			checkAllocs(t, "Find", c.find, find)
			checkAllocs(t, "Insert", c.ins, ins)
		})
	}
}

func TestAllocBudgetHybridLocalInsert(t *testing.T) {
	skipUnderRace(t)
	prov := simfab.New(1, fabric.DefaultCostModel())
	t.Cleanup(func() { prov.Close() })
	w := cluster.MustWorld(prov, []int{0})
	m, err := NewUnorderedMap[int, int](NewRuntime(w), "local")
	if err != nil {
		t.Fatal(err)
	}
	m.parts[0].Reserve(4 * allocsRuns)
	r := w.Rank(0)
	checkAllocs(t, "Insert", 1, func(i int) error {
		_, err := m.Insert(r, i, i)
		return err
	})
}

func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under -race")
	}
}

// checkAllocs measures op's allocations per call and fails above ceil.
func checkAllocs(t *testing.T, name string, ceil float64, op func(i int) error) {
	t.Helper()
	i := 0
	var opErr error
	got := testing.AllocsPerRun(allocsRuns, func() {
		if err := op(i); err != nil && opErr == nil {
			opErr = err
		}
		i++
	})
	if opErr != nil {
		t.Fatalf("%s: %v", name, opErr)
	}
	t.Logf("%s: %.2f allocs/op (ceiling %.0f)", name, got, ceil)
	if got > ceil {
		t.Errorf("%s: %.2f allocs/op, budget %.0f", name, got, ceil)
	}
}
