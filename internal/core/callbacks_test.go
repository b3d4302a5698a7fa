package core

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"hcl/internal/metrics"
)

func TestInsertChainedRunsCallbacks(t *testing.T) {
	w, rt, col := newTestWorld(t, 2, 1)
	m, err := NewUnorderedMap[string, int](rt, "cbmap", WithServers([]int{1}))
	if err != nil {
		t.Fatal(err)
	}
	var audits atomic.Int64
	rt.BindCallback("audit", func(node int, prev []byte) ([]byte, error) {
		audits.Add(1)
		return prev, nil
	})
	rt.BindCallback("stamp", func(node int, prev []byte) ([]byte, error) {
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(node))
		return append(prev, out...), nil
	})

	r := w.Rank(0)
	base := col.Total(metrics.RemoteInvokes, -1)
	resp, err := m.InsertChained(r, "k", 7, "audit", "stamp")
	if err != nil {
		t.Fatal(err)
	}
	// One invocation carried insert + both callbacks.
	if got := col.Total(metrics.RemoteInvokes, -1) - base; got != 1 {
		t.Fatalf("chain used %v invocations, want 1", got)
	}
	if audits.Load() != 1 {
		t.Fatalf("audit ran %d times", audits.Load())
	}
	// Response = insert's bool byte + stamped node id.
	if len(resp) != 9 || resp[0] != 1 {
		t.Fatalf("chained response = %v", resp)
	}
	if node := binary.LittleEndian.Uint64(resp[1:]); node != 1 {
		t.Fatalf("callback saw node %d", node)
	}
	// The insert itself happened.
	if v, ok, err := m.Find(r, "k"); err != nil || !ok || v != 7 {
		t.Fatalf("Find = %d,%v,%v", v, ok, err)
	}
}

func TestInsertChainedAsync(t *testing.T) {
	w, rt, _ := newTestWorld(t, 2, 1)
	m, err := NewUnorderedMap[string, int](rt, "cbasync", WithServers([]int{1}))
	if err != nil {
		t.Fatal(err)
	}
	rt.BindCallback("echo", func(node int, prev []byte) ([]byte, error) {
		return prev, nil
	})
	r := w.Rank(0)
	futs := make([]*Future[[]byte], 16)
	for i := range futs {
		futs[i] = m.InsertChainedAsync(r, string(rune('a'+i)), i, "echo")
	}
	for i, f := range futs {
		resp, err := f.Wait(r)
		if err != nil || len(resp) != 1 {
			t.Fatalf("future %d: %v %v", i, resp, err)
		}
	}
	if n, _ := m.Size(r); n != 16 {
		t.Fatalf("Size = %d", n)
	}
}

func TestInsertChainedUnknownCallback(t *testing.T) {
	w, rt, _ := newTestWorld(t, 2, 1)
	m, err := NewUnorderedMap[string, int](rt, "cbbad", WithServers([]int{1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.InsertChained(w.Rank(0), "k", 1, "missing"); err == nil {
		t.Fatal("unknown callback must error")
	}
}

func TestCallbackErrorPropagates(t *testing.T) {
	w, rt, _ := newTestWorld(t, 2, 1)
	m, err := NewUnorderedMap[string, int](rt, "cberr", WithServers([]int{1}))
	if err != nil {
		t.Fatal(err)
	}
	rt.BindCallback("boom", func(node int, prev []byte) ([]byte, error) {
		return nil, errTest
	})
	if _, err := m.InsertChained(w.Rank(0), "k", 1, "boom"); err == nil {
		t.Fatal("callback error must propagate to the caller")
	}
}

var errTest = errForTest{}

type errForTest struct{}

func (errForTest) Error() string { return "test failure" }

// Writing into a callback's input or a chained call's result must not
// change the replies of later operations: handlers may answer with
// shared reply bytes, and the chain path hands out copies.
func TestChainedBytesDoNotAliasReplies(t *testing.T) {
	w, rt, _ := newTestWorld(t, 2, 1)
	m, err := NewUnorderedMap[string, int](rt, "cbalias", WithServers([]int{1}))
	if err != nil {
		t.Fatal(err)
	}
	rt.BindCallback("scribble", func(node int, prev []byte) ([]byte, error) {
		for i := range prev {
			prev[i] ^= 0xff
		}
		return prev, nil
	})
	r := w.Rank(0)
	if _, err := m.InsertChained(r, "a", 1, "scribble"); err != nil {
		t.Fatal(err)
	}
	resp, err := m.InsertChained(r, "b", 2)
	if err != nil || len(resp) != 1 || resp[0] != 1 {
		t.Fatalf("InsertChained without callbacks = %v, %v", resp, err)
	}
	resp[0] = 0
	fut := m.InsertChainedAsync(r, "c", 3)
	resp, err = fut.Wait(r)
	if err != nil || len(resp) != 1 || resp[0] != 1 {
		t.Fatalf("InsertChainedAsync = %v, %v", resp, err)
	}
	resp[0] = 0

	if isNew, err := m.Insert(r, "d", 4); err != nil || !isNew {
		t.Fatalf("Insert of a fresh key = %v, %v", isNew, err)
	}
	if isNew, err := m.Insert(r, "d", 5); err != nil || isNew {
		t.Fatalf("Insert of a stored key = %v, %v", isNew, err)
	}
	if _, ok, err := m.Find(r, "missing"); err != nil || ok {
		t.Fatalf("Find of a missing key = %v, %v", ok, err)
	}
	if ok, err := m.Erase(r, "d"); err != nil || !ok {
		t.Fatalf("Erase of a stored key = %v, %v", ok, err)
	}
	if ok, err := m.Erase(r, "d"); err != nil || ok {
		t.Fatalf("Erase of an erased key = %v, %v", ok, err)
	}
}
