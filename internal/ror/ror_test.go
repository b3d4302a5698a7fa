package ror

import (
	"strings"
	"testing"

	"hcl/internal/fabric"
	"hcl/internal/fabric/simfab"
)

type testCaller struct {
	ref fabric.RankRef
	clk *fabric.Clock
}

func (c *testCaller) Ref() fabric.RankRef  { return c.ref }
func (c *testCaller) Clock() *fabric.Clock { return c.clk }

func newTestEngine(nodes int) (*Engine, *simfab.Fabric) {
	f := simfab.New(nodes, fabric.DefaultCostModel())
	return NewEngine(f), f
}

func caller(node int) *testCaller {
	return &testCaller{ref: fabric.RankRef{Rank: 0, Node: node}, clk: fabric.NewClock(0)}
}

func TestBindInvoke(t *testing.T) {
	e, f := newTestEngine(2)
	defer f.Close()
	e.Bind("upper", func(node int, arg []byte) ([]byte, int64) {
		return []byte(strings.ToUpper(string(arg))), 10
	})
	if !e.Bound("upper") {
		t.Fatal("Bound")
	}
	c := caller(0)
	resp, err := e.Invoke(c, 1, "upper", []byte("hcl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "HCL" {
		t.Fatalf("resp = %q", resp)
	}
	if c.clk.Now() <= 0 {
		t.Fatal("invoke must cost virtual time")
	}
}

func TestInvokeUnbound(t *testing.T) {
	e, f := newTestEngine(1)
	defer f.Close()
	if _, err := e.Invoke(caller(0), 0, "nope", nil); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnbind(t *testing.T) {
	e, f := newTestEngine(1)
	defer f.Close()
	e.Bind("f", func(int, []byte) ([]byte, int64) { return nil, 0 })
	e.Unbind("f")
	if e.Bound("f") {
		t.Fatal("still bound after Unbind")
	}
}

func TestHandlerSeesNodeID(t *testing.T) {
	e, f := newTestEngine(3)
	defer f.Close()
	e.Bind("whoami", func(node int, arg []byte) ([]byte, int64) {
		return []byte{byte(node)}, 0
	})
	for n := 0; n < 3; n++ {
		resp, err := e.Invoke(caller(0), n, "whoami", nil)
		if err != nil {
			t.Fatal(err)
		}
		if int(resp[0]) != n {
			t.Fatalf("node %d handler saw %d", n, resp[0])
		}
	}
}

func TestHandlerPanicBecomesError(t *testing.T) {
	e, f := newTestEngine(1)
	defer f.Close()
	e.Bind("boom", func(int, []byte) ([]byte, int64) { panic("kaput") })
	if _, err := e.Invoke(caller(0), 0, "boom", nil); err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v", err)
	}
}

func TestInvokeChain(t *testing.T) {
	e, f := newTestEngine(1)
	defer f.Close()
	e.Bind("add1", func(_ int, arg []byte) ([]byte, int64) {
		return []byte{arg[0] + 1}, 5
	})
	e.Bind("double", func(_ int, arg []byte) ([]byte, int64) {
		return []byte{arg[0] * 2}, 5
	})
	// (3+1)*2 = 8, then +1 = 9: three ops, one round trip.
	resp, err := e.InvokeChain(caller(0), 0, []string{"add1", "double", "add1"}, []byte{3})
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != 9 {
		t.Fatalf("chain result = %d, want 9", resp[0])
	}
}

func TestInvokeChainEmpty(t *testing.T) {
	e, f := newTestEngine(1)
	defer f.Close()
	if _, err := e.InvokeChain(caller(0), 0, nil, nil); err == nil {
		t.Fatal("empty chain must error")
	}
}

func TestChainCostsOneRoundTripNotN(t *testing.T) {
	e, f := newTestEngine(2)
	defer f.Close()
	e.Bind("nop", func(int, []byte) ([]byte, int64) { return nil, 0 })

	single := caller(0)
	if _, err := e.Invoke(single, 1, "nop", nil); err != nil {
		t.Fatal(err)
	}
	chained := caller(0)
	if _, err := e.InvokeChain(chained, 1, []string{"nop", "nop", "nop"}, nil); err != nil {
		t.Fatal(err)
	}
	// Three chained calls must cost well under three separate invokes.
	if chained.clk.Now() >= 2*single.clk.Now() {
		t.Fatalf("chain of 3 = %d, single = %d: aggregation saved nothing", chained.clk.Now(), single.clk.Now())
	}
}

func TestInvokeAsyncOverlaps(t *testing.T) {
	// Separate fabrics per strategy: virtual resources retain reservation
	// state, so sharing one fabric would bill the async phase for the
	// sync phase's traffic.
	eSync, fSync := newTestEngine(2)
	defer fSync.Close()
	eSync.Bind("nop", func(int, []byte) ([]byte, int64) { return nil, 1000 })
	sync := caller(0)
	for i := 0; i < 4; i++ {
		if _, err := eSync.Invoke(sync, 1, "nop", nil); err != nil {
			t.Fatal(err)
		}
	}

	eAsync, fAsync := newTestEngine(2)
	defer fAsync.Close()
	eAsync.Bind("nop", func(int, []byte) ([]byte, int64) { return nil, 1000 })
	async := caller(0)
	futs := make([]*Future, 4)
	for i := range futs {
		futs[i] = eAsync.InvokeAsync(async, 1, "nop", nil)
	}
	for _, fu := range futs {
		if _, err := fu.Wait(async); err != nil {
			t.Fatal(err)
		}
	}
	if async.clk.Now() >= sync.clk.Now() {
		t.Fatalf("async pipeline (%d) should beat sequential sync (%d)", async.clk.Now(), sync.clk.Now())
	}
}

func TestFutureDoneAndReadyAt(t *testing.T) {
	e, f := newTestEngine(1)
	defer f.Close()
	e.Bind("nop", func(int, []byte) ([]byte, int64) { return []byte("ok"), 0 })
	c := caller(0)
	fu := e.InvokeAsync(c, 0, "nop", nil)
	resp, err := fu.Wait(c)
	if err != nil || string(resp) != "ok" {
		t.Fatalf("Wait = %q, %v", resp, err)
	}
	if !fu.Done() {
		t.Fatal("Done after Wait")
	}
	if fu.ReadyAt() <= 0 {
		t.Fatalf("ReadyAt = %d", fu.ReadyAt())
	}
	if c.clk.Now() < fu.ReadyAt() {
		t.Fatal("Wait must advance waiter clock to completion")
	}
}

func TestAsyncErrorPropagates(t *testing.T) {
	e, f := newTestEngine(1)
	defer f.Close()
	fu := e.InvokeAsync(caller(0), 0, "missing", nil)
	if _, err := fu.Wait(caller(0)); err == nil {
		t.Fatal("expected unbound error via future")
	}
}

func TestBatchFlush(t *testing.T) {
	e, f := newTestEngine(2)
	defer f.Close()
	e.Bind("inc", func(_ int, arg []byte) ([]byte, int64) {
		return []byte{arg[0] + 1}, 5
	})
	b := e.NewBatch(1)
	for i := byte(0); i < 10; i++ {
		b.Add("inc", []byte{i})
	}
	if b.Len() != 10 {
		t.Fatalf("Len = %d", b.Len())
	}
	resps, err := b.Flush(caller(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 10 {
		t.Fatalf("%d responses", len(resps))
	}
	for i, r := range resps {
		if r[0] != byte(i)+1 {
			t.Fatalf("resp[%d] = %d", i, r[0])
		}
	}
	if b.Len() != 0 {
		t.Fatal("batch not reset after flush")
	}
}

func TestBatchEmptyFlush(t *testing.T) {
	e, f := newTestEngine(1)
	defer f.Close()
	resps, err := e.NewBatch(0).Flush(caller(0))
	if err != nil || resps != nil {
		t.Fatalf("empty flush = %v, %v", resps, err)
	}
}

func TestBatchCheaperThanSeparateCalls(t *testing.T) {
	// Fresh fabric per strategy to avoid reservation carry-over.
	eSep, fSep := newTestEngine(2)
	defer fSep.Close()
	eSep.Bind("nop", func(int, []byte) ([]byte, int64) { return nil, 100 })
	sep := caller(0)
	for i := 0; i < 16; i++ {
		if _, err := eSep.Invoke(sep, 1, "nop", nil); err != nil {
			t.Fatal(err)
		}
	}

	eAgg, fAgg := newTestEngine(2)
	defer fAgg.Close()
	eAgg.Bind("nop", func(int, []byte) ([]byte, int64) { return nil, 100 })
	agg := caller(0)
	b := eAgg.NewBatch(1)
	for i := 0; i < 16; i++ {
		b.Add("nop", nil)
	}
	if _, err := b.Flush(agg); err != nil {
		t.Fatal(err)
	}
	if agg.clk.Now() >= sep.clk.Now() {
		t.Fatalf("batch (%d) should beat 16 separate invokes (%d)", agg.clk.Now(), sep.clk.Now())
	}
}

func TestBatchFlushAsync(t *testing.T) {
	e, f := newTestEngine(1)
	defer f.Close()
	e.Bind("id", func(_ int, arg []byte) ([]byte, int64) { return arg, 0 })
	c := caller(0)
	b := e.NewBatch(0)
	b.Add("id", []byte("a"))
	b.Add("id", []byte("b"))
	bf := b.FlushAsync(c)
	resps, err := bf.Wait(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 || string(resps[0]) != "a" || string(resps[1]) != "b" {
		t.Fatalf("resps = %q", resps)
	}
	// Empty async flush.
	if resps, err := e.NewBatch(0).FlushAsync(c).Wait(c); err != nil || resps != nil {
		t.Fatalf("empty async flush = %v, %v", resps, err)
	}
}

func TestBatchErrorOnUnbound(t *testing.T) {
	e, f := newTestEngine(1)
	defer f.Close()
	b := e.NewBatch(0)
	b.Add("missing", nil)
	if _, err := b.Flush(caller(0)); err == nil {
		t.Fatal("expected error")
	}
}

func TestWireCorruptionHandled(t *testing.T) {
	e, f := newTestEngine(1)
	defer f.Close()
	// Drive the dispatcher directly with garbage frames.
	c := caller(0)
	for _, raw := range [][]byte{nil, {}, {9, 9}, {0}, {1, 1, 0, 0}} {
		if _, err := f.RoundTrip(c.clk, c.ref, 0, raw); err != nil {
			// transport error is fine
			continue
		}
	}
	// Engine must still work afterwards.
	e.Bind("ok", func(int, []byte) ([]byte, int64) { return []byte("y"), 0 })
	resp, err := e.Invoke(c, 0, "ok", nil)
	if err != nil || string(resp) != "y" {
		t.Fatalf("engine wedged after garbage: %q %v", resp, err)
	}
}

func TestInvokeInPlace(t *testing.T) {
	e, f := newTestEngine(2)
	defer f.Close()
	e.Bind("upper", func(node int, arg []byte) ([]byte, int64) {
		return []byte(strings.ToUpper(string(arg))), 10
	})
	resp, err := InvokeInPlace(e, caller(0), 1, "upper", append(ArgBuf(3), "hcl"...))
	if err != nil || string(resp) != "HCL" {
		t.Fatalf("InvokeInPlace = %q, %v", resp, err)
	}
	if _, err := InvokeInPlace(e, caller(0), 1, "nope", ArgBuf(0)); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("unbound: err = %v", err)
	}
}
