package shmfab

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"hcl/internal/fabric"
	"hcl/internal/memory"
	"hcl/internal/metrics"
	"hcl/internal/trace"
)

func verbName(verb byte) string {
	switch verb {
	case frameRPC:
		return "roundtrip"
	case frameWrite:
		return "write"
	case frameRead:
		return "read"
	case frameCAS:
		return "cas"
	case frameFAA:
		return "fetchadd"
	}
	return "verb"
}

func (f *Fabric) deadline(o fabric.Options) time.Duration {
	if o.Deadline > 0 {
		return o.Deadline
	}
	return f.cfg.OpDeadline
}

// exchange runs one request/response over the rings: register the
// waiter, write the frame (one copy, into the ring), co-poll our own
// inbound rings while the peer works, and classify the outcome. The
// returned waiter holds the result; the caller must putWaiter it.
// start is the op entry timestamp the caller already took for wall-clock
// accounting — reused here for the deadline so the fast path reads the
// clock once, not twice (time.Now is ~100ns on virtualized clocksources
// and was a double-digit share of the 64B round trip).
func (f *Fabric) exchange(clk *fabric.Clock, node int, verb byte, p1, p2, buf []byte, o fabric.Options, start time.Time) (*waiter, error) {
	deadlineAt := start.Add(f.deadline(o))
	tc := clk.Trace()
	traced := tc.Valid()
	typ := verb
	var ext []byte
	var extArr [trace.CtxWireLen]byte
	var t0 int64
	if traced {
		typ |= frameTraced
		trace.PutCtx(extArr[:], tc)
		ext = extArr[:]
		t0 = trace.NowNS()
	}

	id := f.nextID.Add(1)
	w := grabWaiter(node, verb)
	w.buf = buf
	f.pendPut(id, w)

	// When the target rank is mapped into this process and declares its
	// handlers non-blocking, this goroutine consumes the peer's inbound
	// ring itself (peer.sweep below) — no futex wake, no handoff to the
	// peer's poller. Sweeping executes whatever record is next in ring
	// order, including dispatch, hence the InlineHandlers gate.
	peer := f.inProcPeer(node)
	if peer != nil && !peer.cfg.InlineHandlers {
		peer = nil
	}
	if err := f.send(node, typ, id, ext, p1, p2, deadlineAt, peer == nil); err != nil {
		_, still := f.pendTake(id)
		if still {
			putWaiter(w)
			return nil, err
		}
		// A concurrent failPending owns delivery; it took the waiter and
		// is about to publish its verdict (we never parked, so no token
		// is coming — spin the handful of stores out).
		for w.state.Load() != waitDone {
			runtime.Gosched()
		}
		return w, nil
	}
	var sentAt int64
	if traced {
		sentAt = trace.NowNS()
	}

	// Co-polling: while waiting, this goroutine drains its own inbound
	// rings, so on the hot path the response is completed by the caller
	// itself — the round trip costs one goroutine switch per side, like
	// a channel send, not a tour through two resident pollers. The spin
	// phase watches w.state with plain atomic loads; channel machinery
	// only engages once we durably park below.
	completed := false
	for i := 0; i < f.cfg.SpinSweeps; i++ {
		if w.state.Load() == waitDone {
			completed = true
			break
		}
		if peer != nil {
			// Drive the peer's consumer side of the ring we just wrote:
			// our own request is dispatched on this goroutine and the
			// response lands in our inbound ring before the sweep below.
			peer.sweep(f.me)
		}
		for j := 0; j < f.cfg.Nodes; j++ {
			if j != f.me {
				f.sweep(j)
			}
		}
		if w.state.Load() == waitDone {
			completed = true
			break
		}
		runtime.Gosched()
	}
	if !completed {
		// Publish the park. deliver sends a token iff its Swap observes
		// waitParked, and every path below consumes it in that case.
		if !w.state.CompareAndSwap(waitPending, waitParked) {
			completed = true // delivery won the race; no token posted
		} else {
			tm := grabTimer(time.Until(deadlineAt))
			select {
			case <-w.ch:
				completed = true
			case <-tm.C:
			case <-f.done:
			}
			putTimer(tm)
		}
	}
	if !completed {
		_, still := f.pendTake(id)
		if still {
			putWaiter(w)
			if f.closed.Load() {
				return nil, fabric.ErrClosed
			}
			return nil, fmt.Errorf("shmfab: %s to node %d: %w", verbName(verb), node, fabric.ErrTimeout)
		}
		// Completion raced the timeout and won; we are still parked from
		// its point of view, so a token is (or will be) posted.
		<-w.ch
	}

	if traced && f.cfg.Tracer != nil && w.respAt >= sentAt && w.respAt > 0 {
		tr := f.cfg.Tracer
		wire := w.respAt - sentAt - w.res
		if wire < 0 {
			wire = 0
		}
		vs := f.syms.verbSym(verb)
		sid := tr.NewIDs(3)
		tr.RecordSyms(
			trace.SymSpan{TraceID: tc.TraceID, ID: sid, Parent: tc.Parent,
				Name: f.syms.clientEnqueue, Verb: vs, Node: int32(node), Attempt: int32(tc.Attempt),
				Start: t0, End: sentAt},
			trace.SymSpan{TraceID: tc.TraceID, ID: sid + 1, Parent: tc.Parent,
				Name: f.syms.wire, Verb: vs, Node: int32(node), Attempt: int32(tc.Attempt),
				Start: sentAt, End: sentAt + wire},
			trace.SymSpan{TraceID: tc.TraceID, ID: sid + 2, Parent: tc.Parent,
				Name: f.syms.response, Verb: vs, Node: int32(node), Attempt: int32(tc.Attempt),
				Start: w.respAt, End: trace.NowNS()})
	}
	return w, nil
}

func (f *Fabric) checkTarget(node int) error {
	if f.closed.Load() {
		return fabric.ErrClosed
	}
	if node < 0 || node >= f.cfg.Nodes {
		return fmt.Errorf("shmfab: node %d: %w", node, fabric.ErrBadNode)
	}
	if node != f.me && f.nodeDead(node) {
		return fmt.Errorf("shmfab: node %d: %w", node, fabric.ErrNodeDown)
	}
	return nil
}

// RoundTrip performs one RPC exchange against the dispatcher at node.
func (f *Fabric) RoundTrip(clk *fabric.Clock, from fabric.RankRef, node int, req []byte) ([]byte, error) {
	return f.roundTrip(clk, node, req, fabric.Options{})
}

func (f *Fabric) roundTrip(clk *fabric.Clock, node int, req []byte, o fabric.Options) ([]byte, error) {
	if err := f.checkTarget(node); err != nil {
		return nil, err
	}
	if node == f.me {
		dpp := f.disp[node].Load()
		if dpp == nil {
			return nil, fmt.Errorf("shmfab: no dispatcher at node %d", node)
		}
		resp, cost := (*dpp)(req)
		clk.Advance(cost)
		return resp, nil
	}
	start := time.Now()
	w, err := f.exchange(clk, node, frameRPC, req, nil, nil, o, start)
	clk.Advance(time.Since(start).Nanoseconds())
	if err != nil {
		return nil, err
	}
	resp, werr := w.resp, w.err
	putWaiter(w)
	return resp, werr
}

// Write performs a one-sided write into (node, seg, off). When the
// segment lives in the shared arena the store happens directly on the
// mapping; otherwise the target's poller executes it in ring order.
func (f *Fabric) Write(clk *fabric.Clock, from fabric.RankRef, node, seg, off int, data []byte) error {
	return f.write(clk, node, seg, off, data, fabric.Options{})
}

func (f *Fabric) write(clk *fabric.Clock, node, seg, off int, data []byte, o fabric.Options) error {
	if err := f.checkTarget(node); err != nil {
		return err
	}
	if node == f.me {
		s, err := f.localSegment(seg)
		if err != nil {
			return err
		}
		return s.WriteAt(off, data)
	}
	if s, ok := f.arenaSeg(node, seg); ok {
		return s.WriteAt(off, data)
	}
	var hdr [16]byte
	put64(hdr[:8], uint64(seg))
	put64(hdr[8:], uint64(off))
	start := time.Now()
	w, err := f.exchange(clk, node, frameWrite, hdr[:], data, nil, o, start)
	clk.Advance(time.Since(start).Nanoseconds())
	if err != nil {
		return err
	}
	werr := w.err
	putWaiter(w)
	return werr
}

// Read performs a one-sided read of len(buf) bytes from (node, seg, off).
// Arena-exported segments are read with direct loads off the mapping —
// the zero-copy fast path the BCL DataBox layer rides.
func (f *Fabric) Read(clk *fabric.Clock, from fabric.RankRef, node, seg, off int, buf []byte) error {
	return f.read(clk, node, seg, off, buf, fabric.Options{})
}

func (f *Fabric) read(clk *fabric.Clock, node, seg, off int, buf []byte, o fabric.Options) error {
	if err := f.checkTarget(node); err != nil {
		return err
	}
	if node == f.me {
		s, err := f.localSegment(seg)
		if err != nil {
			return err
		}
		return s.ReadAt(off, buf)
	}
	if s, ok := f.arenaSeg(node, seg); ok {
		return s.ReadAt(off, buf)
	}
	var hdr [24]byte
	put64(hdr[:8], uint64(seg))
	put64(hdr[8:16], uint64(off))
	put64(hdr[16:], uint64(len(buf)))
	start := time.Now()
	w, err := f.exchange(clk, node, frameRead, hdr[:], nil, buf, o, start)
	clk.Advance(time.Since(start).Nanoseconds())
	if err != nil {
		return err
	}
	werr := w.err
	putWaiter(w)
	return werr
}

// CAS performs a remote compare-and-swap on the word at (node, seg, off).
func (f *Fabric) CAS(clk *fabric.Clock, from fabric.RankRef, node, seg, off int, old, new uint64) (uint64, bool, error) {
	return f.cas(clk, node, seg, off, old, new, fabric.Options{})
}

func (f *Fabric) cas(clk *fabric.Clock, node, seg, off int, old, new uint64, o fabric.Options) (uint64, bool, error) {
	if err := f.checkTarget(node); err != nil {
		return 0, false, err
	}
	if node == f.me {
		s, err := f.localSegment(seg)
		if err != nil {
			return 0, false, err
		}
		witness, ok := s.CAS64(off, old, new)
		return witness, ok, nil
	}
	if s, ok := f.arenaSeg(node, seg); ok {
		witness, swapped := s.CAS64(off, old, new)
		return witness, swapped, nil
	}
	var hdr [32]byte
	put64(hdr[:8], uint64(seg))
	put64(hdr[8:16], uint64(off))
	put64(hdr[16:24], old)
	put64(hdr[24:], new)
	start := time.Now()
	w, err := f.exchange(clk, node, frameCAS, hdr[:], nil, nil, o, start)
	clk.Advance(time.Since(start).Nanoseconds())
	if err != nil {
		return 0, false, err
	}
	defer putWaiter(w)
	if w.err != nil {
		return 0, false, w.err
	}
	if w.n != 9 {
		return 0, false, fmt.Errorf("shmfab: cas response is %d bytes, want 9", w.n)
	}
	return le64(w.inline[:8]), w.inline[8] == 1, nil
}

// FetchAdd atomically adds delta to the word at (node, seg, off) and
// returns the previous value.
func (f *Fabric) FetchAdd(clk *fabric.Clock, from fabric.RankRef, node, seg, off int, delta uint64) (uint64, error) {
	return f.fetchAdd(clk, node, seg, off, delta, fabric.Options{})
}

func (f *Fabric) fetchAdd(clk *fabric.Clock, node, seg, off int, delta uint64, o fabric.Options) (uint64, error) {
	if err := f.checkTarget(node); err != nil {
		return 0, err
	}
	if node == f.me {
		s, err := f.localSegment(seg)
		if err != nil {
			return 0, err
		}
		return s.Add64(off, delta) - delta, nil
	}
	if s, ok := f.arenaSeg(node, seg); ok {
		return s.Add64(off, delta) - delta, nil
	}
	var hdr [24]byte
	put64(hdr[:8], uint64(seg))
	put64(hdr[8:16], uint64(off))
	put64(hdr[16:], delta)
	start := time.Now()
	w, err := f.exchange(clk, node, frameFAA, hdr[:], nil, nil, o, start)
	clk.Advance(time.Since(start).Nanoseconds())
	if err != nil {
		return 0, err
	}
	defer putWaiter(w)
	if w.err != nil {
		return 0, w.err
	}
	if w.n != 8 {
		return 0, fmt.Errorf("shmfab: faa response is %d bytes, want 8", w.n)
	}
	return le64(w.inline[:8]), nil
}

// --- segments ----------------------------------------------------------

func (f *Fabric) localSegment(id int) (fabric.Segment, error) {
	f.segMu.Lock()
	defer f.segMu.Unlock()
	list := f.segs[f.me]
	if id < 0 || id >= len(list) || list[id] == nil {
		return nil, fabric.ErrBadSegment
	}
	return list[id], nil
}

// RegisterSegment exposes seg at node under the next id. Registering a
// SharedSegment-allocated segment at this fabric's own node additionally
// publishes its arena location, switching every peer's one-sided verbs
// against it to direct loads and stores on the mapping.
func (f *Fabric) RegisterSegment(node int, seg fabric.Segment) int {
	f.segMu.Lock()
	id := len(f.segs[node])
	f.segs[node] = append(f.segs[node], seg)
	var offPlus1 uint64
	var n int
	if node == f.me && id < maxSegs {
		if ms, ok := seg.(*memory.Segment); ok {
			if op, shared := f.sharedOff[ms]; shared {
				offPlus1 = op
				n = seg.Len()
			}
		}
	}
	f.segMu.Unlock()
	if offPlus1 != 0 {
		e := f.lay.segEntryOff(f.me, id)
		f.mf.store64(e+8, uint64(n)) // length first; readers gate on offset
		f.mf.store64(e, offPlus1)
	}
	return id
}

func align64(n int) int { return (n + 63) &^ 63 }

// SharedSegment bump-allocates a segment inside the mapping's shared
// arena. The caller registers it like any other segment; doing so
// exports it for direct (no-round-trip) one-sided access by peers. The
// arena cursor lives in the shared header, so allocations from all
// processes never overlap; arena memory is never reclaimed (segments
// live for the run, like registered RDMA memory).
func (f *Fabric) SharedSegment(size int) (*memory.Segment, error) {
	if size <= 0 {
		return nil, errors.New("shmfab: shared segment size must be positive")
	}
	sz := uint64(align64(size))
	for {
		cur := f.mf.load64(hdrArenaNext)
		if cur+sz > uint64(f.lay.arena) {
			return nil, fmt.Errorf("shmfab: shared arena exhausted (%d of %d bytes used)", cur, f.lay.arena)
		}
		if !f.mf.cas64(hdrArenaNext, cur, cur+sz) {
			continue
		}
		base := f.lay.arenaOff + int(cur)
		seg := memory.NewMappedSegment(f.mf.data[base : base+int(sz)])
		f.segMu.Lock()
		f.sharedOff[seg] = cur + 1
		f.segMu.Unlock()
		f.mf.exportSeg(cur+1, seg)
		return seg, nil
	}
}

// SharedSegmentAt implements fabric.SharedArena: data structures ask
// the provider to place their backing segment in the shared arena so
// that co-located peers (and the dataplane's one-sided fast path) read
// it in place. Only this fabric's own node can be served — each rank
// allocates its own partitions — and exhaustion reports false so the
// caller falls back to a heap segment instead of failing.
func (f *Fabric) SharedSegmentAt(node, size int) (fabric.Segment, bool) {
	if node != f.me {
		return nil, false
	}
	seg, err := f.SharedSegment(size)
	if err != nil {
		return nil, false
	}
	return seg, true
}

// arenaSeg resolves (node, id) to a directly accessible view of an
// arena-exported segment. In-process peers reuse the owner's Segment
// instance — sharing its stripe write-locks, so bulk accesses are
// torn-free under the race detector too. Peers in other OS processes
// wrap their own view of the same arena bytes and rely on the checksum
// discipline (exactly the dataplane's slot-mirror contract) for bulk
// data; word atomics are architecturally atomic either way.
func (f *Fabric) arenaSeg(node, id int) (fabric.Segment, bool) {
	if id < 0 || id >= maxSegs {
		return nil, false
	}
	key := uint64(node)<<32 | uint64(uint32(id))
	if v, ok := f.attach.Load(key); ok {
		return v.(fabric.Segment), true
	}
	e := f.lay.segEntryOff(node, id)
	offPlus1 := f.mf.load64(e)
	if offPlus1 == 0 {
		return nil, false // not exported (or not yet); use the rings
	}
	n := f.mf.load64(e + 8)
	if s := f.mf.ownerSeg(offPlus1); s != nil {
		f.attach.Store(key, s)
		return s, true
	}
	off := int(offPlus1 - 1)
	if n < 8 || off+int(n) > f.lay.arena {
		return nil, false
	}
	base := f.lay.arenaOff + off
	seg := memory.NewMappedSegment(f.mf.data[base : base+int(n)])
	f.attach.Store(key, seg)
	return seg, true
}

// --- teardown ----------------------------------------------------------

func (f *Fabric) wakeEveryone() {
	for j := 0; j < f.cfg.Nodes; j++ {
		pw := f.parkWord(j)
		atomic.StoreUint32(pw, 0)
		futexWake(pw, 1<<30)
	}
}

// Close marks this node dead in the shared header (peers fail over
// immediately), fails every pending operation, stops the pollers, and
// drops this process's reference on the mapping.
func (f *Fabric) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	f.detach()
	f.mf.store64(f.lay.nodeBlockOff(f.me)+nbState, stateDead)
	close(f.done)
	f.wakeEveryone()
	f.failPending(-1, fabric.ErrClosed)
	f.wg.Wait()
	return f.mf.close()
}

// KillTorn simulates this rank crashing mid-send for tests: it publishes
// a record whose checksum does not match (the bytes a process dying
// inside send would leave) to victim's inbound ring, then dies abruptly
// — without flipping its shared state word, so the *only* crash evidence
// peers get is the torn frame. The victim must classify it as
// fabric.ErrNodeDown, never hand the bytes to a handler.
func (f *Fabric) KillTorn(victim int) error {
	if victim >= 0 && victim < f.cfg.Nodes && victim != f.me && !f.closed.Load() {
		if o, rec, newTail, err := f.acquire(victim, 32, time.Now().Add(time.Second)); err == nil {
			writeRecHdr(rec, 32, ^uint64(0), frameRPC)
			put32(rec[4:], recCsum(rec, 32)+1) // deliberately wrong
			f.publish(o, victim, newTail, true)
		}
	}
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	f.detach()
	close(f.done)
	f.wakeEveryone()
	f.failPending(-1, fabric.ErrClosed)
	// A crash does not drain: pollers may be stuck inside handlers, and a
	// dead process would not have waited for them. The mapping reference
	// is deliberately leaked too, so those stragglers (and live peers in
	// this process) never touch unmapped memory.
	return nil
}

// --- per-operation options ---------------------------------------------

type optioned struct {
	f *Fabric
	o fabric.Options
}

// WithOptions returns a view over the same fabric whose verbs apply o.
func (f *Fabric) WithOptions(o fabric.Options) fabric.Provider {
	if o == (fabric.Options{}) {
		return f
	}
	return &optioned{f: f, o: o}
}

func (v *optioned) Name() string                                { return v.f.Name() }
func (v *optioned) NumNodes() int                               { return v.f.NumNodes() }
func (v *optioned) Close() error                                { return v.f.Close() }
func (v *optioned) SetDispatcher(n int, d fabric.Dispatcher)    { v.f.SetDispatcher(n, d) }
func (v *optioned) RegisterSegment(n int, s fabric.Segment) int { return v.f.RegisterSegment(n, s) }
func (v *optioned) Collector() *metrics.Collector               { return v.f.Collector() }
func (v *optioned) Inner() fabric.Provider                      { return v.f }

func (v *optioned) SharedSegmentAt(node, size int) (fabric.Segment, bool) {
	return v.f.SharedSegmentAt(node, size)
}

func (v *optioned) WithOptions(o fabric.Options) fabric.Provider {
	return v.f.WithOptions(v.o.Merge(o))
}

func (v *optioned) RoundTrip(clk *fabric.Clock, from fabric.RankRef, node int, req []byte) ([]byte, error) {
	return v.f.roundTrip(clk, node, req, v.o)
}

func (v *optioned) Write(clk *fabric.Clock, from fabric.RankRef, node, seg, off int, data []byte) error {
	return v.f.write(clk, node, seg, off, data, v.o)
}

func (v *optioned) Read(clk *fabric.Clock, from fabric.RankRef, node, seg, off int, buf []byte) error {
	return v.f.read(clk, node, seg, off, buf, v.o)
}

func (v *optioned) CAS(clk *fabric.Clock, from fabric.RankRef, node, seg, off int, old, new uint64) (uint64, bool, error) {
	return v.f.cas(clk, node, seg, off, old, new, v.o)
}

func (v *optioned) FetchAdd(clk *fabric.Clock, from fabric.RankRef, node, seg, off int, delta uint64) (uint64, error) {
	return v.f.fetchAdd(clk, node, seg, off, delta, v.o)
}

var _ fabric.Optioned = (*optioned)(nil)
