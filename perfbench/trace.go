package main

import (
	"sync/atomic"
	"time"

	"hcl/internal/databox"
	"hcl/internal/fabric"
)

// The traced run times calls into each layer's public functions from
// here, outside the program: a fabric.Provider decorator (round trips,
// one-sided verbs, and, through SetDispatcher, the server-side RoR stub
// plus container handler) and a databox.Codec decorator. Nothing inside
// the program is instrumented.

// stat names one counter of the traced run. Each ...Calls stat is
// followed by the stat holding those calls' nanoseconds.
type stat int

const (
	rtCalls stat = iota // fabric round trips, client side
	rtNS
	rtSyncNS // round-trip time spent inside synchronous container calls
	vtRTNS   // virtual ns across RoundTrip (simfab only)
	reqBytes
	respBytes
	oneSidedCalls
	oneSidedNS
	fabricErrors
	dispatchCalls // server-side RoR stub plus container handler
	dispatchNS
	encodeCalls
	encodeNS
	encodeBytes
	decodeCalls
	decodeNS
	clientCodecNS // codec time of client-side container instances
	waitNS        // time inside Future.Wait
	verbCalls     // container calls of verb v at verbCalls+2*v, their ns at verbCalls+2*v+1
	numStats      = verbCalls + 2*stat(numVerbs)
)

type verb int

const (
	verbFind verb = iota
	verbInsert
	verbMerge
	numVerbs
)

var verbNames = [numVerbs]string{"find", "insert", "merge"}

// recorder accumulates the traced run's layer counters. Clients, fabric
// goroutines and dispatchers update it concurrently.
type recorder struct{ v [numStats]atomic.Int64 }

func (r *recorder) add(s stat, n int64) { r.v[s].Add(n) }

func (r *recorder) timed(calls stat, d time.Duration) {
	r.v[calls].Add(1)
	r.v[calls+1].Add(int64(d))
}

func (r *recorder) verb(v verb, d time.Duration) { r.timed(verbCalls+2*stat(v), d) }

type recSnap [numStats]int64

func (r *recorder) snap() (s recSnap) {
	for i := range s {
		s[i] = r.v[i].Load()
	}
	return s
}

// tracedProvider decorates a fabric.Provider with timing. It forwards
// every optional capability the program looks up on a provider —
// Inner (arena, collector and tracer lookups), Accountant, Modeler and
// Optioned — so wrapping changes no behaviour.
type tracedProvider struct {
	inner fabric.Provider
	rec   *recorder
	// sync marks client round trips that run inside the caller's
	// container call (not on a detached future goroutine).
	sync bool
	// virtual marks a provider whose clocks run in modelled time.
	virtual bool
}

func (p *tracedProvider) Name() string           { return p.inner.Name() }
func (p *tracedProvider) NumNodes() int          { return p.inner.NumNodes() }
func (p *tracedProvider) Close() error           { return p.inner.Close() }
func (p *tracedProvider) Inner() fabric.Provider { return p.inner }

func (p *tracedProvider) RoundTrip(clk *fabric.Clock, from fabric.RankRef, node int, req []byte) ([]byte, error) {
	v0, t0 := clk.Now(), time.Now()
	resp, err := p.inner.RoundTrip(clk, from, node, req)
	d := time.Since(t0)
	p.rec.timed(rtCalls, d)
	if p.sync {
		p.rec.add(rtSyncNS, int64(d))
	}
	if p.virtual {
		p.rec.add(vtRTNS, clk.Now()-v0)
	}
	p.rec.add(reqBytes, int64(len(req)))
	p.rec.add(respBytes, int64(len(resp)))
	p.countErr(err)
	return resp, err
}

func (p *tracedProvider) SetDispatcher(node int, d fabric.Dispatcher) {
	p.inner.SetDispatcher(node, func(req []byte) ([]byte, int64) {
		t0 := time.Now()
		resp, cost := d(req)
		p.rec.timed(dispatchCalls, time.Since(t0))
		return resp, cost
	})
}

func (p *tracedProvider) RegisterSegment(node int, seg fabric.Segment) int {
	return p.inner.RegisterSegment(node, seg)
}

func (p *tracedProvider) Write(clk *fabric.Clock, from fabric.RankRef, node, seg, off int, data []byte) error {
	t0 := time.Now()
	err := p.inner.Write(clk, from, node, seg, off, data)
	p.oneSided(t0, err)
	return err
}

func (p *tracedProvider) Read(clk *fabric.Clock, from fabric.RankRef, node, seg, off int, buf []byte) error {
	t0 := time.Now()
	err := p.inner.Read(clk, from, node, seg, off, buf)
	p.oneSided(t0, err)
	return err
}

func (p *tracedProvider) CAS(clk *fabric.Clock, from fabric.RankRef, node, seg, off int, old, new uint64) (uint64, bool, error) {
	t0 := time.Now()
	w, ok, err := p.inner.CAS(clk, from, node, seg, off, old, new)
	p.oneSided(t0, err)
	return w, ok, err
}

func (p *tracedProvider) FetchAdd(clk *fabric.Clock, from fabric.RankRef, node, seg, off int, delta uint64) (uint64, error) {
	t0 := time.Now()
	v, err := p.inner.FetchAdd(clk, from, node, seg, off, delta)
	p.oneSided(t0, err)
	return v, err
}

func (p *tracedProvider) oneSided(t0 time.Time, err error) {
	p.rec.timed(oneSidedCalls, time.Since(t0))
	p.countErr(err)
}

func (p *tracedProvider) countErr(err error) {
	if err != nil {
		p.rec.add(fabricErrors, 1)
	}
}

// WithOptions keeps per-operation option views traced.
func (p *tracedProvider) WithOptions(o fabric.Options) fabric.Provider {
	v := *p
	v.inner = fabric.WithOptions(p.inner, o)
	return &v
}

// Accountant: simfab charges hybrid-path work and allocations through
// these; fabric.AccountantOf does not unwrap decorators.
func (p *tracedProvider) LocalAccess(clk *fabric.Clock, node, bytes, ops int) {
	fabric.AccountantOf(p.inner).LocalAccess(clk, node, bytes, ops)
}
func (p *tracedProvider) Alloc(node int, n, now int64) error {
	return fabric.AccountantOf(p.inner).Alloc(node, n, now)
}
func (p *tracedProvider) Free(node int, n, now int64) {
	fabric.AccountantOf(p.inner).Free(node, n, now)
}
func (p *tracedProvider) Allocated(node int) int64 {
	return fabric.AccountantOf(p.inner).Allocated(node)
}
func (p *tracedProvider) NodeMemory() int64 { return fabric.AccountantOf(p.inner).NodeMemory() }

// CostModel implements fabric.Modeler; fabric.ModelOf does not unwrap.
func (p *tracedProvider) CostModel() fabric.CostModel { return fabric.ModelOf(p.inner) }

// tracedCodec decorates a databox.Codec with timing. Fixed-size keys and
// values never reach a codec, so it sees only variable-length types.
type tracedCodec struct {
	inner  databox.Codec
	rec    *recorder
	client bool // installed on the client-side container instance
}

func (c tracedCodec) Name() string { return c.inner.Name() }

func (c tracedCodec) Marshal(v any) ([]byte, error) {
	t0 := time.Now()
	b, err := c.inner.Marshal(v)
	d := time.Since(t0)
	c.rec.timed(encodeCalls, d)
	c.rec.add(encodeBytes, int64(len(b)))
	if c.client {
		c.rec.add(clientCodecNS, int64(d))
	}
	return b, err
}

func (c tracedCodec) Unmarshal(data []byte, v any) error {
	t0 := time.Now()
	err := c.inner.Unmarshal(data, v)
	d := time.Since(t0)
	c.rec.timed(decodeCalls, d)
	if c.client {
		c.rec.add(clientCodecNS, int64(d))
	}
	return err
}
