package ror

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"hcl/internal/fabric"
	"hcl/internal/fabric/simfab"
	"hcl/internal/trace"
)

func TestCallWireRoundTrip(t *testing.T) {
	prop := func(names []string, arg []byte) bool {
		if len(names) > 200 {
			names = names[:200]
		}
		chain := make([]string, 0, len(names))
		for _, n := range names {
			if len(n) > 1000 {
				n = n[:1000]
			}
			chain = append(chain, n)
		}
		if len(chain) == 0 {
			chain = []string{"f"}
		}
		req, err := decodeRequest(encodeCall(chain, arg))
		if err != nil || req.kind != kindCall {
			return false
		}
		ids := req.ids()
		if len(ids) != len(chain) {
			return false
		}
		for i := range chain {
			if ids[i] != FnID(chain[i]) {
				return false
			}
		}
		return bytes.Equal(req.arg, arg) || (len(req.arg) == 0 && len(arg) == 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchWireRoundTrip(t *testing.T) {
	prop := func(fns []string, args [][]byte) bool {
		n := len(fns)
		if len(args) < n {
			n = len(args)
		}
		if n > 100 {
			n = 100
		}
		calls := make([]subCall, 0, n)
		for i := 0; i < n; i++ {
			fn := fns[i]
			if len(fn) > 500 {
				fn = fn[:500]
			}
			calls = append(calls, subCall{fn: fn, arg: args[i]})
		}
		if len(calls) == 0 {
			return true
		}
		req, err := decodeRequest(encodeBatch(calls))
		subs := req.subs()
		if err != nil || req.kind != kindBatch || len(subs) != len(calls) {
			return false
		}
		for i, c := range calls {
			if subs[i].id != FnID(c.fn) || !bytes.Equal(subs[i].arg, c.arg) {
				if !(len(subs[i].arg) == 0 && len(c.arg) == 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRequestTruncationNeverPanics(t *testing.T) {
	// Any prefix of a valid frame must fail cleanly, not panic.
	full := encodeCall([]string{"alpha", "beta"}, []byte("payload"))
	for i := 0; i < len(full); i++ {
		decodeRequest(full[:i]) // must not panic; errors are fine
	}
	fullBatch := encodeBatch([]subCall{{fn: "f", arg: []byte("xyz")}, {fn: "g"}})
	for i := 0; i < len(fullBatch); i++ {
		decodeRequest(fullBatch[:i])
	}
}

func TestResponseRoundTrip(t *testing.T) {
	payload := []byte("result bytes")
	got, err := decodeResponse(encodeResponse(payload, nil))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ok response: %q %v", got, err)
	}
	if _, err := decodeResponse(encodeResponse(nil, errTestSentinel{})); err == nil {
		t.Fatal("error response must decode to error")
	}
	if _, err := decodeResponse(nil); err == nil {
		t.Fatal("empty response must fail")
	}
	if _, err := decodeResponse([]byte{9}); err == nil {
		t.Fatal("bad status must fail")
	}
}

func TestBatchResponsesRoundTrip(t *testing.T) {
	in := [][]byte{[]byte("a"), nil, []byte("ccc")}
	out, err := decodeBatchResponses(encodeBatchResponses(in))
	if err != nil || len(out) != 3 {
		t.Fatalf("batch responses: %v %v", out, err)
	}
	if string(out[0]) != "a" || len(out[1]) != 0 || string(out[2]) != "ccc" {
		t.Fatalf("batch responses = %q", out)
	}
	if _, err := decodeBatchResponses([]byte{1}); err == nil {
		t.Fatal("truncated batch responses must fail")
	}
}

// ids lists a decoded call's function ids.
func (r request) ids() []uint64 {
	var out []uint64
	for p := 0; p < len(r.chain); p += idLen {
		out = append(out, binary.LittleEndian.Uint64(r.chain[p:]))
	}
	return out
}

type decodedSub struct {
	id  uint64
	arg []byte
}

// subs lists a decoded batch's sub-calls.
func (r request) subs() []decodedSub {
	var out []decodedSub
	recs := r.arg
	for i := 0; i < r.count; i++ {
		id, arg, rest, _ := nextSub(recs)
		recs = rest
		out = append(out, decodedSub{id, arg})
	}
	return out
}

type errTestSentinel struct{}

func (errTestSentinel) Error() string { return "sentinel" }

// FuzzDecodeRequest: arbitrary bytes never panic the request decoder; a
// rejected frame reports errTruncated, and an accepted one walks cleanly.
// The seeds cover call, chained call, batch and traced frames.
func FuzzDecodeRequest(f *testing.F) {
	tc := trace.Ctx{TraceID: 3, Parent: 4, Attempt: 1}
	f.Add(encodeCall([]string{"umap.kv.find"}, []byte("key")))
	f.Add(encodeCall([]string{"a", "b", "c"}, nil))
	f.Add(encodeBatch([]subCall{{fn: "f", arg: []byte("xyz")}, {fn: "g"}}))
	traced := encodeCallBuf([]string{"f"}, []byte("arg"), tc)
	f.Add(append([]byte(nil), traced.b...))
	tracedBatch := encodeBatchBuf([]subCall{{fn: "f", arg: []byte("a")}}, tc)
	f.Add(append([]byte(nil), tracedBatch.b...))
	f.Add([]byte{kindBatch, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := decodeRequest(frame)
		if err != nil {
			if !errors.Is(err, errTruncated) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		switch req.kind {
		case kindCall:
			if len(req.chain)%idLen != 0 {
				t.Fatalf("chain of %d bytes", len(req.chain))
			}
		case kindBatch:
			if len(req.subs()) != req.count {
				t.Fatalf("walked %d of %d sub-calls", len(req.subs()), req.count)
			}
		}
	})
}

// An id no function is bound under yields ErrUnbound naming the id, for
// a call and for a batch.
func TestUnboundIDNamed(t *testing.T) {
	e := NewEngine(simfab.New(1, fabric.DefaultCostModel()))
	e.Bind("known", func(int, []byte) ([]byte, int64) { return nil, 0 })
	id := FnID("unknown")
	want := fmt.Sprintf("%#016x", id)
	if _, err := e.lookup(id); !errors.Is(err, ErrUnbound) || !strings.Contains(err.Error(), want) {
		t.Fatalf("lookup = %v, want ErrUnbound naming %s", err, want)
	}
	for _, frame := range [][]byte{
		encodeCall([]string{"unknown"}, nil),
		encodeCall([]string{"known", "unknown"}, nil),
		encodeBatch([]subCall{{fn: "known"}, {fn: "unknown"}}),
	} {
		resp, _ := e.dispatch(0, frame)
		_, err := decodeResponse(resp)
		if err == nil || !strings.Contains(err.Error(), "not bound") || !strings.Contains(err.Error(), want) {
			t.Fatalf("dispatch of unbound id: %v", err)
		}
	}
}

// Bind fails loudly when a second name would share an id; rebinding the
// same name is fine.
func TestBindIDCollisionPanics(t *testing.T) {
	e := NewEngine(simfab.New(1, fabric.DefaultCostModel()))
	h := func(int, []byte) ([]byte, int64) { return nil, 0 }
	e.Bind("f", h)
	e.Bind("f", h)
	// Plant a binding under another name's id to stand in for a 64-bit
	// hash collision, which no pair of short names produces.
	e.update("g", func(b *binding) { b.h = func(int, []byte) ([]byte, int64) { return nil, 0 }; b.name = "not-g" })
	defer func() {
		if recover() == nil {
			t.Fatal("Bind of a colliding name did not panic")
		}
	}()
	e.Bind("g", h)
}

// An in-place call frame is byte-identical to the copied one, traced or
// not, and sits at the end of the caller's buffer.
func TestCallInPlaceMatchesCopied(t *testing.T) {
	tr := trace.New(0)
	traced, _ := tr.StartTrace()
	for _, tc := range []trace.Ctx{{}, traced} {
		for _, arg := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("batch"), 300)} {
			buf := append(ArgBuf(len(arg)), arg...)
			got := encodeCallInPlace("pq.q.pushN", buf, tc)
			eb := encodeCallBuf([]string{"pq.q.pushN"}, arg, tc)
			if !bytes.Equal(got, eb.b) {
				t.Fatalf("traced=%v len %d: in-place %x, copied %x", tc.Valid(), len(arg), got, eb.b)
			}
			if &got[len(got)-1] != &buf[len(buf)-1] {
				t.Fatal("in-place frame does not alias the argument buffer")
			}
		}
	}
}
