// Package ror implements the paper's RPC-over-RDMA (RoR) framework
// (Section III-B, Figure 2): a bind/invoke function registry whose calls
// travel as RDMA_SEND into a request buffer, execute on the target's NIC
// cores (never the target CPU), and whose responses are pulled back by the
// client with RDMA_READ. On top of the raw exchange it provides
// synchronous calls, asynchronous futures, callback chaining, and request
// aggregation — the four invocation styles the paper describes.
//
// In dataplane terms (docs/DATAPLANE.md) this package is the RPC model:
// one invocation executed at the owning node per operation. The adaptive
// router in internal/dataplane sends every mutation, every compound
// operation, and reads on hot or mutation-heavy partitions through this
// path; uncontended small-value reads may instead take the one-sided
// mirror path. The engine also hosts the dataplane's client-side cache
// check: a ReadThrough installed for a function answers an aggregated
// invocation from an unexpired read lease before it joins a batch bucket.
package ror

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hcl/internal/fabric"
	"hcl/internal/metrics"
	"hcl/internal/trace"
)

// Handler executes a bound function at a node. It returns the serialized
// response and the modelled execution cost in virtual nanoseconds (the
// NIC-core time the operation needs beyond the fixed stub overhead).
type Handler func(node int, arg []byte) (resp []byte, cost int64)

// Caller is anything that can originate an invocation: a cluster.Rank.
type Caller interface {
	Ref() fabric.RankRef
	Clock() *fabric.Clock
}

// OptionsCarrier is an optional Caller capability: a caller carrying
// per-operation fabric options (deadline, retry budget). cluster.Rank
// implements it, so rank.WithDeadline(d) bounds every container operation
// issued through the derived rank — at any layer, with no extra plumbing.
type OptionsCarrier interface {
	OpOptions() fabric.Options
}

// Errors returned by the engine.
var (
	ErrUnbound = errors.New("ror: function not bound")
)

// FramedHandler is a Handler that writes the response status byte
// itself: its output starts with the buffer Reply returns, so the server
// stub ships it as-is instead of copying the payload behind a status
// byte. Containers bind their hot verbs this way with BindFramed. A
// framed response may be a shared reply that no one writes to; the
// engine copies it before a chained callback receives it.
type FramedHandler func(node int, arg []byte) (framed []byte, cost int64)

// Reply returns a response buffer holding the ok status byte, with
// capacity for an n-byte payload. A FramedHandler appends its payload
// and returns the buffer.
func Reply(n int) []byte {
	b := make([]byte, 1, 1+n)
	b[0] = statusOK
	return b
}

// binding is one registry entry: everything the engine needs to serve or
// meter a function, computed once at Bind.
type binding struct {
	id   uint64
	name string
	h    FramedHandler // nil while only a read-through is installed
	rt   ReadThrough
	// hists holds "rpc.<name>" and "exec.<name>", built at Bind when the
	// engine has a collector; without one nothing observes them and they
	// would only hold memory.
	hists *[2]string
}

// hist names histogram i of hists ("rpc." or "exec." prefix).
func (b *binding) hist(i int, prefix string) string {
	if b.hists != nil {
		return b.hists[i]
	}
	return prefix + b.name
}

// registry is an immutable registry snapshot, sorted by id.
type registry []binding

func (r registry) find(id uint64) (int, bool) {
	return slices.BinarySearchFunc(r, id, func(b binding, id uint64) int { return cmp.Compare(b.id, id) })
}

// Engine is the RoR runtime for one provider. Bind registers functions;
// Invoke ships them. An Engine is safe for concurrent use.
type Engine struct {
	prov fabric.Provider

	collector atomic.Pointer[metrics.Collector]
	tracer    atomic.Pointer[trace.Tracer]
	opts      atomic.Pointer[fabric.Options]

	// reg is the copy-on-write registry snapshot: callers read it with
	// one atomic load; regMu serializes writers.
	regMu sync.Mutex
	reg   atomic.Pointer[registry]
}

// ReadThrough is a client-side shortcut consulted before an invocation is
// queued for aggregation: given the call's argument it may produce the
// response locally (a dataplane lease-cache hit) and report true, sparing
// the round trip entirely. The produced bytes must have the exact shape
// the bound handler would return. Installed per function name by the
// dataplane-enabled containers; see docs/DATAPLANE.md.
type ReadThrough func(arg []byte) ([]byte, bool)

// SetReadThrough installs (or, with nil, removes) the read-through
// shortcut for fn.
func (e *Engine) SetReadThrough(fn string, h ReadThrough) {
	e.update(fn, func(b *binding) { b.rt = h })
}

// binding reports the registry entry for id, or nil.
func (e *Engine) binding(id uint64) *binding {
	r := *e.reg.Load()
	if i, ok := r.find(id); ok {
		return &r[i]
	}
	return nil
}

// update applies edit to a copy of fn's binding (a fresh one when fn has
// none) and publishes a new registry snapshot; a binding left with
// neither handler nor read-through is dropped. Two names hashing to one
// id is a configuration error that would misroute calls, so it panics.
func (e *Engine) update(fn string, edit func(*binding)) {
	id := FnID(fn)
	e.regMu.Lock()
	defer e.regMu.Unlock()
	old := *e.reg.Load()
	i, found := old.find(id)
	b := binding{id: id, name: fn}
	rest := old[i:]
	if found {
		if old[i].name != fn {
			panic(fmt.Sprintf("ror: function %q collides with bound %q on id %#016x", fn, old[i].name, id))
		}
		b = old[i]
		rest = old[i+1:]
	}
	edit(&b)
	if b.hists == nil && e.collector.Load() != nil {
		b.hists = &[2]string{"rpc." + fn, "exec." + fn}
	}
	next := append(make(registry, 0, len(old)+1), old[:i]...)
	if b.h != nil || b.rt != nil {
		next = append(next, b)
	}
	next = append(next, rest...)
	e.reg.Store(&next)
}

// readThroughFor reports fn's installed shortcut, or nil.
func (e *Engine) readThroughFor(fn string) ReadThrough {
	if b := e.binding(FnID(fn)); b != nil {
		return b.rt
	}
	return nil
}

// rpcHist names the client-side latency histogram of fn.
func (e *Engine) rpcHist(fn string) string {
	if b := e.binding(FnID(fn)); b != nil {
		return b.hist(0, "rpc.")
	}
	return "rpc." + fn
}

// immediateFuture returns an already-completed future (read-through hits).
func immediateFuture(resp []byte, readyAt int64) *Future {
	f := &Future{done: make(chan struct{}), resp: resp, readyAt: readyAt}
	close(f.done)
	return f
}

// NewEngine creates an engine and installs its dispatcher on every node of
// the provider.
func NewEngine(prov fabric.Provider) *Engine {
	e := &Engine{prov: prov}
	e.reg.Store(&registry{})
	e.opts.Store(&fabric.Options{})
	for n := 0; n < prov.NumNodes(); n++ {
		node := n
		prov.SetDispatcher(node, func(req []byte) ([]byte, int64) {
			return e.dispatch(node, req)
		})
	}
	return e
}

// Provider returns the engine's fabric provider.
func (e *Engine) Provider() fabric.Provider { return e.prov }

// SetCollector installs the metrics collector that invocation-layer series
// (ror_ops_aggregated, ror_agg_flushes) are recorded into, bucketed by the
// calling rank's virtual clock.
func (e *Engine) SetCollector(c *metrics.Collector) { e.collector.Store(c) }

// Collector reports the installed collector (nil when none).
func (e *Engine) Collector() *metrics.Collector { return e.collector.Load() }

// SetTracer installs the span tracer. Every invocation then opens a root
// span, stamps the trace context onto the caller's clock (which carries
// it into the fabric and, on wire transports, across it), and records a
// container-execution span per handler on the serving side. A nil tracer
// disables tracing; the disabled path adds no allocations.
func (e *Engine) SetTracer(t *trace.Tracer) { e.tracer.Store(t) }

// Tracer reports the installed tracer (nil when none).
func (e *Engine) Tracer() *trace.Tracer { return e.tracer.Load() }

// count records one sample at the caller's current virtual time.
func (e *Engine) count(kind metrics.Kind, node int, c Caller, v float64) {
	if col := e.collector.Load(); col != nil {
		col.Add(kind, node, c.Clock().Now(), v)
	}
}

// SetDefaultOptions installs engine-wide per-operation fabric options
// (deadline, attempt budget, RPC-retry opt-in) applied to every
// invocation. A caller implementing OptionsCarrier overrides them per op.
func (e *Engine) SetDefaultOptions(o fabric.Options) { e.opts.Store(&o) }

// DefaultOptions reports the engine-wide options.
func (e *Engine) DefaultOptions() fabric.Options { return *e.opts.Load() }

// providerFor resolves the provider view an invocation by c should travel
// on: the engine defaults overlaid with the caller's own options.
func (e *Engine) providerFor(c Caller) fabric.Provider {
	o := e.DefaultOptions()
	if oc, ok := c.(OptionsCarrier); ok {
		o = o.Merge(oc.OpOptions())
	}
	return fabric.WithOptions(e.prov, o)
}

// Bind maps name to handler in the invocation registry (the paper's
// bind()). Rebinding a name replaces the handler. The name's wire id is
// FnID(name); Bind panics if a different bound name has the same id.
func (e *Engine) Bind(name string, h Handler) {
	BindFramed(e, name, func(node int, arg []byte) ([]byte, int64) {
		resp, cost := h(node, arg)
		return encodeResponse(resp, nil), cost
	})
}

// BindFramed is Bind for a handler that builds its response behind the
// status byte itself (see FramedHandler).
func BindFramed(e *Engine, name string, h FramedHandler) {
	e.update(name, func(b *binding) { b.h = h })
}

// Unbind removes a bound function.
func (e *Engine) Unbind(name string) {
	e.update(name, func(b *binding) { b.h = nil })
}

// Bound reports whether name is currently bound.
func (e *Engine) Bound(name string) bool {
	b := e.binding(FnID(name))
	return b != nil && b.h != nil
}

// lookup resolves a wire id to its bound handler.
func (e *Engine) lookup(id uint64) (*binding, error) {
	if b := e.binding(id); b != nil && b.h != nil {
		return b, nil
	}
	return nil, fmt.Errorf("%w: id %#016x", ErrUnbound, id)
}

// dispatch is the server stub: it demarshals the request, runs the main
// function and any chained callbacks, and marshals the response.
func (e *Engine) dispatch(node int, req []byte) (resp []byte, cost int64) {
	defer func() {
		if p := recover(); p != nil {
			resp = encodeResponse(nil, fmt.Errorf("ror: handler panic: %v", p))
		}
	}()
	call, err := decodeRequest(req)
	if err != nil {
		return encodeResponse(nil, err), 0
	}
	switch call.kind {
	case kindCall:
		return e.runChain(node, call)
	case kindBatch:
		return e.runBatch(node, call)
	default:
		return encodeResponse(nil, fmt.Errorf("ror: unknown request kind %d", call.kind)), 0
	}
}

// runHandler executes one bound function, observing its wall execution
// time into the exec.<fn> histogram and, for traced requests, recording a
// container.exec span under the operation's root. The response is framed.
func (e *Engine) runHandler(node int, b *binding, arg []byte, tc trace.Ctx) ([]byte, int64) {
	col := e.collector.Load()
	tr := e.tracer.Load()
	traced := tr != nil && tc.Valid()
	if col == nil && !traced {
		return b.h(node, arg)
	}
	t0 := trace.NowNS()
	resp, cost := b.h(node, arg)
	t1 := trace.NowNS()
	if col != nil {
		col.Observe(b.hist(1, "exec."), t1-t0)
	}
	if traced {
		tr.Record(trace.Span{
			TraceID: tc.TraceID, ID: tr.NewID(), Parent: tc.Parent,
			Name: "container.exec", Verb: b.name, Node: node,
			Attempt: int(tc.Attempt), Start: t0, End: t1,
		})
	}
	return resp, cost
}

// runChain executes the main function followed by each chained callback,
// feeding every callback the previous stage's response (the paper's
// "conditional execution of multiple operations in one call").
func (e *Engine) runChain(node int, call request) ([]byte, int64) {
	if len(call.chain) == 0 {
		return encodeResponse(nil, errors.New("ror: empty call chain")), 0
	}
	arg := call.arg
	var total int64
	for p := 0; ; p += idLen {
		b, err := e.lookup(binary.LittleEndian.Uint64(call.chain[p:]))
		if err != nil {
			return encodeResponse(nil, err), total
		}
		resp, cost := e.runHandler(node, b, arg, call.tc)
		total += cost
		if p+idLen == len(call.chain) {
			return resp, total
		}
		// A framed handler may answer with a shared, read-only reply; the
		// next stage (a user callback) gets its own copy.
		arg = append([]byte(nil), resp[1:]...)
	}
}

// runBatch executes an aggregated request: every sub-call runs back to
// back on the NIC core, and the sub-responses travel back together.
func (e *Engine) runBatch(node int, call request) ([]byte, int64) {
	var total int64
	resps := make([][]byte, call.count)
	recs := call.arg
	for i := range resps {
		id, arg, rest, _ := nextSub(recs) // validated by decodeRequest
		recs = rest
		b, err := e.lookup(id)
		if err != nil {
			return encodeResponse(nil, err), total
		}
		resp, cost := e.runHandler(node, b, arg, call.tc)
		total += cost
		resps[i] = resp[1:]
	}
	return encodeResponse(encodeBatchResponses(resps), nil), total
}

// Invoke synchronously calls fn at node with arg: the caller blocks until
// the pulled response is available (paper Section III-C4, synchronous
// timing of the future). On in-process transports the response of a
// FramedHandler may be a shared reply: read it, do not write to it.
func (e *Engine) Invoke(c Caller, node int, fn string, arg []byte) ([]byte, error) {
	return e.InvokeChain(c, node, []string{fn}, arg)
}

// InvokeChain calls the first function with arg, then each subsequent
// function with its predecessor's response, all within one round trip.
func (e *Engine) InvokeChain(c Caller, node int, chain []string, arg []byte) ([]byte, error) {
	if len(chain) == 0 {
		return nil, errors.New("ror: empty chain")
	}
	return e.invoke(c, node, chain, arg, nil)
}

// InvokeInPlace is Invoke for an argument appended to an ArgBuf: the
// request header is written into the buffer's headroom, so the argument
// travels without being copied into a request buffer. Batch arguments
// (vector pushes) use it. The call takes ownership of buf.
func InvokeInPlace(e *Engine, c Caller, node int, fn string, buf []byte) ([]byte, error) {
	return e.invoke(c, node, []string{fn}, nil, buf)
}

// invoke runs a synchronous call of chain with arg, or of a single
// function with the argument in the ArgBuf buf. Two parameters, not a
// flag: buf becomes the frame and escapes, arg is only copied, so a
// caller's stack-held argument stays on its stack.
func (e *Engine) invoke(c Caller, node int, chain []string, arg, buf []byte) ([]byte, error) {
	clk := c.Clock()
	col := e.collector.Load()
	tr := e.tracer.Load()
	var tc trace.Ctx
	var rootID uint64
	start := clk.Now()
	if tr != nil {
		tc, rootID = tr.StartTrace()
		clk.SetTrace(tc)
	}
	var req *encBuf
	var frame []byte
	if buf != nil {
		frame = encodeCallInPlace(chain[0], buf, tc)
	} else {
		req = encodeCallBuf(chain, arg, tc)
		frame = req.b
	}
	raw, err := e.providerFor(c).RoundTrip(clk, c.Ref(), node, frame)
	if tr != nil {
		clk.SetTrace(trace.Ctx{})
		tr.FinishRoot(trace.Span{
			TraceID: tc.TraceID, ID: rootID, Name: "rpc", Verb: chain[0],
			Node: node, Start: start, End: clk.Now(),
		})
	}
	if col != nil {
		col.Observe(e.rpcHist(chain[0]), clk.Now()-start)
	}
	if err != nil {
		// The transport may still hold the request (e.g. queued behind a
		// timed-out send); leak it to the GC rather than risk reuse.
		return nil, err
	}
	req.release()
	return decodeResponse(raw)
}

// Future is the pending result of an asynchronous invocation. Wait blocks
// until completion and advances the waiter's clock to the virtual time at
// which the response pull finished — so overlapping computation between
// InvokeAsync and Wait is modelled faithfully.
type Future struct {
	done    chan struct{}
	resp    []byte
	err     error
	readyAt int64
}

// Done reports whether the future has completed without blocking.
func (f *Future) Done() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Wait blocks for the result and syncs the caller's clock.
func (f *Future) Wait(c Caller) ([]byte, error) {
	<-f.done
	c.Clock().AdvanceTo(f.readyAt)
	return f.resp, f.err
}

// ReadyAt reports the virtual completion time (valid after Wait/Done).
func (f *Future) ReadyAt() int64 { return f.readyAt }

// InvokeAsync starts an invocation and immediately returns a Future. The
// caller is charged only the send-post cost; the round trip proceeds on a
// detached clock that starts at the caller's current time.
func (e *Engine) InvokeAsync(c Caller, node int, fn string, arg []byte) *Future {
	return e.InvokeChainAsync(c, node, []string{fn}, arg)
}

// InvokeChainAsync is the asynchronous form of InvokeChain. Transport
// failures — including typed deadline errors from the provider — surface
// from the future's Wait, never as a hang.
func (e *Engine) InvokeChainAsync(c Caller, node int, chain []string, arg []byte) *Future {
	f := &Future{done: make(chan struct{})}
	if len(chain) == 0 {
		f.err = errors.New("ror: empty chain")
		f.readyAt = c.Clock().Now()
		close(f.done)
		return f
	}
	side := fabric.NewClock(c.Clock().Now())
	ref := c.Ref()
	col := e.collector.Load()
	tr := e.tracer.Load()
	var tc trace.Ctx
	var rootID uint64
	if tr != nil {
		tc, rootID = tr.StartTrace()
		side.SetTrace(tc)
	}
	req := encodeCallBuf(chain, arg, tc)
	prov := e.providerFor(c)
	start := side.Now()
	fn := chain[0] // the goroutine keeps the name, not the caller's slice
	go func() {
		defer close(f.done)
		raw, err := prov.RoundTrip(side, ref, node, req.b)
		if err != nil {
			f.err = err
		} else {
			req.release()
			f.resp, f.err = decodeResponse(raw)
		}
		f.readyAt = side.Now()
		if tr != nil {
			tr.FinishRoot(trace.Span{
				TraceID: tc.TraceID, ID: rootID, Name: "rpc.async", Verb: fn,
				Node: node, Start: start, End: side.Now(),
			})
		}
		if col != nil {
			col.Observe(e.rpcHist(fn), side.Now()-start)
		}
	}()
	return f
}
