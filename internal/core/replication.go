package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hcl/internal/containers"
	"hcl/internal/databox"
	"hcl/internal/fabric"
	"hcl/internal/metrics"
	"hcl/internal/ror"
	"hcl/internal/trace"
)

// ReplMode selects the write-acknowledgement policy of a replicated
// container (paper Section III-A4 promoted from the old fire-and-forget
// stub to a real availability layer; see docs/REPLICATION.md).
type ReplMode int

const (
	// QuorumAll acks a mutation only after every replica holder has
	// applied it. Replicas are written *before* the primary, so an acked
	// op is always recoverable from any replica — this is the only mode
	// whose kill/restart behaviour is linearizable for acked ops, and
	// the mode the chaos harness gates on.
	QuorumAll ReplMode = iota
	// QuorumOne acks once at least one copy (the primary counts) holds
	// the mutation. Forward failures are counted, not fatal, and a
	// mutation whose primary is down is applied at a reachable replica
	// instead. Higher availability, weaker consistency: failover reads
	// may observe stale or un-replicated state.
	QuorumOne
	// ReplAsync keeps the pre-quorum behaviour — the primary acks
	// immediately and forwards ride a bounded queue drained in batches —
	// but bounded and error-counted instead of one goroutine per insert
	// with errors dropped. A crash discards queued forwards: acked
	// writes CAN be lost. The harness self-test proves the checker
	// catches exactly that.
	ReplAsync
)

func (m ReplMode) String() string {
	switch m {
	case QuorumAll:
		return "quorum-all"
	case QuorumOne:
		return "quorum-one"
	case ReplAsync:
		return "async"
	}
	return fmt.Sprintf("ReplMode(%d)", int(m))
}

// ErrDegraded reports a replicated mutation that could not reach its
// write quorum: nothing was applied and the client may safely retry.
// It deliberately does not wrap fabric.ErrNodeDown — a degraded write
// has an ambiguous outcome only to callers who conflate the two.
var ErrDegraded = errors.New("write degraded: replication quorum unreachable")

// Replication verb payloads: every rapply carries the origin partition,
// the epoch observed under the origin's replication lock, and the verb.
const (
	replPut   byte = 1
	replDel   byte = 2
	replMerge byte = 3
)

// replNoFence marks a mutation that bypasses epoch fencing: QuorumOne
// failover writes issued while the origin primary is down (no lock, no
// epoch to observe).
const replNoFence = ^uint64(0)

// rsnap sources.
const (
	snapFromCopy    byte = 0 // replica copy of the origin partition, with fencing
	snapFromPrimary byte = 1 // the target node's own primary partition
)

// rapply/mutation response status bytes.
const (
	replStatusOK        byte = 0
	replStatusDegraded  byte = 1 // mutation responses: quorum unreachable, nothing applied
	replStatusFenced    byte = 0 // rapply responses: [0] alone = fenced by a repair
	replStatusDead      byte = 2 // find/rfind/rsnap responses: partition crashed, not yet repaired
	replStatusMalformed byte = 3 // request frame failed validation; nothing was applied
)

// ErrMalformedFrame reports a replication RPC whose frame failed
// validation — short header, out-of-range origin/partition index, unknown
// verb or source, or an undecodable payload. Handlers answer it with a
// typed single-byte status instead of indexing servers/dead with a
// wire-supplied value and risking a panic; clients surface it wrapped in
// this sentinel.
var ErrMalformedFrame = errors.New("malformed replication frame")

// malformedResp is the handler-side response to a frame that failed
// validation.
func malformedResp() []byte { return []byte{replStatusMalformed} }

func isMalformedResp(resp []byte) bool {
	return len(resp) == 1 && resp[0] == replStatusMalformed
}

// replPart is the view of a primary partition the replication layer
// needs; both containers.CuckooMap and containers.OrderedEngine satisfy
// it, so one replGroup serves all four partitioned map/set containers.
type replPart[K comparable, V any] interface {
	Insert(k K, v V) bool
	Find(k K) (V, bool)
	Delete(k K) bool
	Len() int
	Range(fn func(k K, v V) bool)
}

// replCopy is one replica copy: the holder partition's materialized view
// of another partition's data. minEpoch fences stale forwards that raced
// a repair snapshot — a forward carrying an epoch below minEpoch is
// already covered (or deliberately superseded) by the snapshot and must
// not be applied.
type replCopy[K comparable, V any] struct {
	mu       sync.Mutex
	m        *containers.CuckooMap[K, V]
	minEpoch uint64
}

type replKey struct{ holder, origin int }

// replOp is one queued ReplAsync forward.
type replOp struct {
	p     int
	verb  byte
	kb    []byte
	vb    []byte
	epoch uint64
}

const (
	asyncDrainThreshold = 16   // enqueue count that triggers an inline drain
	asyncQueueCap       = 1024 // beyond this, forwards are dropped and counted
)

// replGroup is the per-container replication state machine. Protocol
// (sync modes), per origin partition p and under locks[p]:
//
//	read epoch -> forward to every holder of p -> only if ALL acked,
//	apply at the primary (and journal) -> ack OK.
//
// Any forward failure means nothing is applied at the primary and the
// client gets a typed degraded error (QuorumAll) — so the acked state of
// the primary is always a subset of every replica, which is what makes
// read-failover and crash+repair linearizable for acked ops. Repair
// takes the same lock and bumps the epoch, fencing in-flight forwards.
type replGroup[K comparable, V any] struct {
	rt      *Runtime
	name    string // container name, for errors
	mode    ReplMode
	n       int   // replicas per partition, clamped to len(servers)-1
	servers []int // partition index -> node
	byNode  map[int]int

	prim      func(p int) replPart[K, V]
	kbox      *databox.Box[K]
	vbox      *databox.Box[V] // nil when keyOnly
	keyOnly   bool
	mergeInto func(cp *containers.CuckooMap[K, V], k K, v V) bool // nil: Insert
	onRestore func(p int, recs [][]byte)                          // journal rewrite hook

	fnRapply string
	fnRfind  string
	fnRsnap  string

	locks   []sync.Mutex // per origin partition; serializes mutations vs repair
	epochs  []atomic.Uint64
	dead    []atomic.Bool // crashed and not yet repaired; refuses all service
	holders [][]int       // origin partition -> holder partitions, in forward order
	copies  map[replKey]*replCopy[K, V]

	amu      sync.Mutex // guards queue+draining+drainGen (ReplAsync only)
	adone    *sync.Cond // signals a drain pass finishing (drainGen bump)
	queue    []replOp
	draining bool
	drainGen uint64 // completed drain passes; Flush waits on it
}

// newReplGroup wires replication for a partitioned container, or returns
// nil when the configuration cannot replicate (no replicas requested, or
// fewer than two partitions to replicate across).
func newReplGroup[K comparable, V any](
	rt *Runtime, name, prefix string, servers []int, byNode map[int]int,
	prim func(p int) replPart[K, V],
	kbox *databox.Box[K], vbox *databox.Box[V], keyOnly bool, o options,
) *replGroup[K, V] {
	if o.replicas <= 0 || len(servers) < 2 {
		return nil
	}
	n := o.replicas
	if n > len(servers)-1 {
		n = len(servers) - 1
	}
	g := &replGroup[K, V]{
		rt:       rt,
		name:     name,
		mode:     o.replMode,
		n:        n,
		servers:  servers,
		byNode:   byNode,
		prim:     prim,
		kbox:     kbox,
		vbox:     vbox,
		keyOnly:  keyOnly,
		fnRapply: prefix + "rapply",
		fnRfind:  prefix + "rfind",
		fnRsnap:  prefix + "rsnap",
		locks:    make([]sync.Mutex, len(servers)),
		epochs:   make([]atomic.Uint64, len(servers)),
		dead:     make([]atomic.Bool, len(servers)),
		holders:  make([][]int, len(servers)),
		copies:   make(map[replKey]*replCopy[K, V]),
	}
	g.adone = sync.NewCond(&g.amu)
	for p := range servers {
		hs := make([]int, 0, n)
		for i := 1; i <= n; i++ {
			h := (p + i) % len(servers)
			hs = append(hs, h)
			g.copies[replKey{h, p}] = &replCopy[K, V]{m: containers.NewCuckooMapSize[K, V](16)}
		}
		g.holders[p] = hs
	}
	g.bind()
	return g
}

// serverCaller is the synthetic caller identity of server-to-server
// forwards: a negative rank unique per node (never colliding with real
// client ranks), a fresh clock per forward batch (fabric.Clock is not
// goroutine-safe and the primary handles many clients concurrently).
type serverCaller struct {
	ref fabric.RankRef
	clk *fabric.Clock
	opt fabric.Options
}

func (s *serverCaller) Ref() fabric.RankRef       { return s.ref }
func (s *serverCaller) Clock() *fabric.Clock      { return s.clk }
func (s *serverCaller) OpOptions() fabric.Options { return s.opt }

func (g *replGroup[K, V]) caller(node int, opt fabric.Options) *serverCaller {
	return &serverCaller{
		ref: fabric.RankRef{Rank: -1 - node, Node: node},
		clk: fabric.NewClock(0),
		opt: opt,
	}
}

// repairOptions mirror the harness's quiescent verification options: a
// deadline far beyond residual injected delays and a deep retry budget,
// because repair runs while the cluster is healing, not under load.
var repairOptions = fabric.Options{
	Deadline:    5 * time.Second,
	MaxAttempts: 64,
	RetryRPC:    true,
}

func (g *replGroup[K, V]) count(kind metrics.Kind, node int, t int64, v float64) {
	if col := g.rt.engine.Collector(); col != nil {
		col.Add(kind, node, t, v)
	}
}

// ---------------------------------------------------------------------------
// Wire encoding

// encodeRapply: [4B LE origin][8B LE epoch][1B verb][kb or EncodePair(kb,vb)].
func encodeRapply(origin int, epoch uint64, verb byte, kb, vb []byte, keyOnly bool) []byte {
	var payload []byte
	if keyOnly || verb == replDel {
		payload = kb
	} else {
		payload = databox.EncodePair(kb, vb)
	}
	out := make([]byte, 13+len(payload))
	binary.LittleEndian.PutUint32(out[:4], uint32(origin))
	binary.LittleEndian.PutUint64(out[4:12], epoch)
	out[12] = verb
	copy(out[13:], payload)
	return out
}

// decodeRapply validates and decodes one rapply frame. nparts bounds the
// wire-supplied origin index before any caller uses it to address
// servers/dead/holders state; every validation failure wraps
// ErrMalformedFrame.
func decodeRapply(arg []byte, keyOnly bool, nparts int) (origin int, epoch uint64, verb byte, kb, vb []byte, err error) {
	if len(arg) < 13 {
		return 0, 0, 0, nil, nil, fmt.Errorf("%w: short rapply arg (%d bytes)", ErrMalformedFrame, len(arg))
	}
	origin = int(binary.LittleEndian.Uint32(arg[:4]))
	if origin < 0 || origin >= nparts {
		return 0, 0, 0, nil, nil, fmt.Errorf("%w: rapply origin %d out of range [0,%d)", ErrMalformedFrame, origin, nparts)
	}
	epoch = binary.LittleEndian.Uint64(arg[4:12])
	verb = arg[12]
	if verb != replPut && verb != replDel && verb != replMerge {
		return 0, 0, 0, nil, nil, fmt.Errorf("%w: unknown rapply verb %d", ErrMalformedFrame, verb)
	}
	payload := arg[13:]
	if keyOnly || verb == replDel {
		return origin, epoch, verb, payload, nil, nil
	}
	kb, vb, err = databox.DecodePair(payload)
	if err != nil {
		err = fmt.Errorf("%w: rapply payload: %v", ErrMalformedFrame, err)
	}
	return origin, epoch, verb, kb, vb, err
}

// decodeRfind validates and decodes one rfind frame ([4B LE origin][kb]).
func decodeRfind(arg []byte, nparts int) (origin int, kb []byte, err error) {
	if len(arg) < 4 {
		return 0, nil, fmt.Errorf("%w: short rfind arg (%d bytes)", ErrMalformedFrame, len(arg))
	}
	origin = int(binary.LittleEndian.Uint32(arg[:4]))
	if origin < 0 || origin >= nparts {
		return 0, nil, fmt.Errorf("%w: rfind origin %d out of range [0,%d)", ErrMalformedFrame, origin, nparts)
	}
	return origin, arg[4:], nil
}

// encodeRsnap: [4B LE origin][1B source][8B LE fence epoch].
func encodeRsnap(origin int, src byte, fence uint64) []byte {
	var out [13]byte
	binary.LittleEndian.PutUint32(out[:4], uint32(origin))
	out[4] = src
	binary.LittleEndian.PutUint64(out[5:13], fence)
	return out[:]
}

// decodeRsnap validates and decodes one rsnap frame, bounds-checking the
// wire-supplied origin and source before they select partition state.
func decodeRsnap(arg []byte, nparts int) (origin int, src byte, fence uint64, err error) {
	if len(arg) < 13 {
		return 0, 0, 0, fmt.Errorf("%w: short rsnap arg (%d bytes)", ErrMalformedFrame, len(arg))
	}
	origin = int(binary.LittleEndian.Uint32(arg[:4]))
	if origin < 0 || origin >= nparts {
		return 0, 0, 0, fmt.Errorf("%w: rsnap origin %d out of range [0,%d)", ErrMalformedFrame, origin, nparts)
	}
	src = arg[4]
	if src != snapFromCopy && src != snapFromPrimary {
		return 0, 0, 0, fmt.Errorf("%w: unknown rsnap source %d", ErrMalformedFrame, src)
	}
	fence = binary.LittleEndian.Uint64(arg[5:13])
	return origin, src, fence, nil
}

// snapRecord encodes one entry of a snapshot response: the bare key for
// key-only containers, an EncodePair otherwise.
func (g *replGroup[K, V]) snapRecord(k K, v V) ([]byte, error) {
	kb, err := g.kbox.Encode(k)
	if err != nil {
		return nil, err
	}
	if g.keyOnly {
		return kb, nil
	}
	vb, err := g.vbox.Encode(v)
	if err != nil {
		return nil, err
	}
	return databox.EncodePair(kb, vb), nil
}

func (g *replGroup[K, V]) decodeRecord(rec []byte) (K, V, error) {
	var v V
	if g.keyOnly {
		k, err := g.kbox.Decode(rec)
		return k, v, err
	}
	kb, vb, err := databox.DecodePair(rec)
	if err != nil {
		var zk K
		return zk, v, err
	}
	k, err := g.kbox.Decode(kb)
	if err != nil {
		return k, v, err
	}
	v, err = g.vbox.Decode(vb)
	return k, v, err
}

// ---------------------------------------------------------------------------
// Server-side verbs

func (g *replGroup[K, V]) bind() {
	e := g.rt.engine
	cm := g.rt.model

	// rapply: apply one forwarded mutation to this holder's copy of the
	// origin partition, unless a repair snapshot has fenced the epoch. A
	// frame that fails validation (wire-supplied indices are untrusted)
	// gets the typed malformed status — never a panic.
	e.Bind(g.fnRapply, func(node int, arg []byte) ([]byte, int64) {
		origin, epoch, verb, kb, vb, err := decodeRapply(arg, g.keyOnly, len(g.servers))
		if err != nil {
			return malformedResp(), cm.LocalOpNS
		}
		h, ok := g.byNode[node]
		if !ok {
			panic(fmt.Sprintf("hcl: %s: rapply at non-server node %d", g.name, node))
		}
		cp := g.copies[replKey{h, origin}]
		if cp == nil {
			// In-range origin, but this holder keeps no copy of it: the
			// frame was misrouted or forged.
			return malformedResp(), cm.LocalOpNS
		}
		if g.dead[h].Load() {
			// A dead holder cannot accept forwards; the fence response
			// makes the origin's quorum fail instead of silently losing
			// the replica write.
			return []byte{replStatusFenced}, cm.LocalOpNS
		}
		k, err := g.kbox.Decode(kb)
		if err != nil {
			return malformedResp(), cm.LocalOpNS
		}
		var v V
		if !g.keyOnly && verb != replDel {
			if v, err = g.vbox.Decode(vb); err != nil {
				return malformedResp(), cm.LocalOpNS
			}
		}
		cp.mu.Lock()
		if epoch != replNoFence && epoch < cp.minEpoch {
			cp.mu.Unlock()
			return []byte{replStatusFenced}, cm.LocalOpNS
		}
		var applied bool
		switch verb {
		case replPut:
			applied = cp.m.Insert(k, v)
		case replDel:
			applied = cp.m.Delete(k)
		case replMerge:
			if g.mergeInto != nil {
				applied = g.mergeInto(cp.m, k, v)
			} else {
				applied = cp.m.Insert(k, v)
			}
		}
		cp.mu.Unlock()
		return []byte{1, bit(applied)}, cm.LocalOpNS + cm.MemTime(len(arg))
	})

	// rfind: read a key from this holder's copy. Response shape matches
	// the container's own find verb so client decoders can be reused.
	e.Bind(g.fnRfind, func(node int, arg []byte) ([]byte, int64) {
		origin, kbArg, err := decodeRfind(arg, len(g.servers))
		if err != nil {
			return malformedResp(), cm.LocalOpNS
		}
		h := g.byNode[node]
		cp := g.copies[replKey{h, origin}]
		if cp == nil {
			return malformedResp(), cm.LocalOpNS
		}
		if g.dead[h].Load() {
			return []byte{replStatusDead}, cm.LocalOpNS
		}
		k, err := g.kbox.Decode(kbArg)
		if err != nil {
			return malformedResp(), cm.LocalOpNS
		}
		cp.mu.Lock()
		v, ok := cp.m.Find(k)
		cp.mu.Unlock()
		if g.keyOnly {
			return []byte{bit(ok)}, cm.LocalOpNS
		}
		if !ok {
			return []byte{0}, cm.LocalOpNS
		}
		vb, err := g.vbox.Encode(v)
		if err != nil {
			panic(err)
		}
		return append([]byte{1}, vb...), cm.LocalOpNS + cm.MemTime(len(vb))
	})

	// rsnap: stream a full snapshot of either this holder's copy of the
	// origin (fencing subsequent stale forwards below the given epoch)
	// or this node's own primary partition. The primary variant takes no
	// locks: it is invoked inline by RepairNode while the repairing
	// goroutine already holds the origin's replication lock.
	e.Bind(g.fnRsnap, func(node int, arg []byte) ([]byte, int64) {
		origin, src, fence, err := decodeRsnap(arg, len(g.servers))
		if err != nil {
			return malformedResp(), cm.LocalOpNS
		}
		if g.dead[g.byNode[node]].Load() {
			return []byte{replStatusDead}, cm.LocalOpNS
		}
		var recs [][]byte
		var encErr error
		collect := func(k K, v V) bool {
			rec, err := g.snapRecord(k, v)
			if err != nil {
				encErr = err
				return false
			}
			recs = append(recs, rec)
			return true
		}
		switch src {
		case snapFromCopy:
			h := g.byNode[node]
			cp := g.copies[replKey{h, origin}]
			if cp == nil {
				return malformedResp(), cm.LocalOpNS
			}
			cp.mu.Lock()
			if fence > cp.minEpoch {
				cp.minEpoch = fence
			}
			cp.m.Range(collect)
			cp.mu.Unlock()
		case snapFromPrimary:
			g.prim(g.byNode[node]).Range(collect)
		}
		if encErr != nil {
			panic(encErr)
		}
		resp := databox.EncodeList(recs...)
		return resp, cm.LocalOpNS*int64(1+len(recs)) + cm.MemTime(len(resp))
	})
}

// ---------------------------------------------------------------------------
// Mutation path

// mutate runs one mutating verb on origin partition p under the
// replication protocol. apply performs the primary-side effect (local
// apply + journal) and returns the verb's boolean result; it is invoked
// only when the mode's quorum is satisfied (QuorumAll), or
// unconditionally (QuorumOne, ReplAsync). The returned cost is the
// virtual time spent forwarding, to be billed to the calling client.
func (g *replGroup[K, V]) mutate(p int, verb byte, kb, vb []byte, apply func() bool) (bool, int64, error) {
	g.locks[p].Lock()
	if g.dead[p].Load() {
		// The partition crashed and was not repaired yet: a real dead
		// process would never serve this request, so neither do we — in
		// particular the mutation must NOT forward to replicas, which
		// still hold the acked state repair will restore from.
		g.locks[p].Unlock()
		return false, 0, fmt.Errorf("hcl: %s: %w: partition %d crashed, awaiting repair", g.name, ErrDegraded, p)
	}
	epoch := g.epochs[p].Load()

	if g.mode == ReplAsync {
		res := apply()
		// Queued ops outlive this handler, but kb/vb alias the RPC
		// engine's reusable call buffer — clone before enqueueing.
		// Fresh variables, not kb/vb reassigned: escape analysis is
		// flow-insensitive, and storing a reassigned parameter would move
		// every caller's key buffer to the heap.
		qkb := append([]byte(nil), kb...)
		var qvb []byte
		if vb != nil {
			qvb = append([]byte(nil), vb...)
		}
		depth, drain := g.enqueue(replOp{p: p, verb: verb, kb: qkb, vb: qvb, epoch: epoch})
		g.locks[p].Unlock()
		g.count(metrics.ReplicaLag, g.servers[p], 0, float64(depth))
		if drain {
			g.drainAsync()
		}
		return res, 0, nil
	}

	cost, err := g.forwardAll(p, verb, kb, vb, epoch)
	if g.mode == QuorumOne {
		// Quorum of one: the primary itself satisfies it. Forward
		// failures were already counted by forwardAll.
		res := apply()
		g.locks[p].Unlock()
		return res, cost, nil
	}
	if err == nil && g.epochs[p].Load() != epoch {
		// A repair fenced this epoch mid-flight (possible only when the
		// lock discipline is violated by an external driver; checked for
		// defense in depth).
		err = fmt.Errorf("partition %d repaired mid-write", p)
	}
	if err != nil {
		g.locks[p].Unlock()
		return false, cost, fmt.Errorf("hcl: %s: %w: %v", g.name, ErrDegraded, err)
	}
	res := apply()
	g.locks[p].Unlock()
	return res, cost, nil
}

// forwardAll synchronously forwards one mutation to every holder of p
// and reports the first failure (transport error or epoch fence). The
// returned cost is the virtual time the forwards took.
func (g *replGroup[K, V]) forwardAll(p int, verb byte, kb, vb []byte, epoch uint64) (int64, error) {
	node := g.servers[p]
	opt := fabric.Options{RetryRPC: verb != replMerge} // put/del re-apply idempotently
	c := g.caller(node, opt)
	tr := g.rt.engine.Tracer()
	var tc trace.Ctx
	var rootID uint64
	if tr != nil {
		tc, rootID = tr.StartTrace()
		c.clk.SetTrace(tc)
	}
	arg := encodeRapply(p, epoch, verb, kb, vb, g.keyOnly)
	var firstErr error
	for _, h := range g.holders[p] {
		resp, err := g.rt.engine.Invoke(c, g.servers[h], g.fnRapply, arg)
		if err == nil && isMalformedResp(resp) {
			err = fmt.Errorf("replica %d: %w", h, ErrMalformedFrame)
		}
		if err == nil && (len(resp) != 2 || resp[0] != 1) {
			err = fmt.Errorf("replica %d fenced epoch %d", h, epoch)
		}
		if err != nil {
			g.count(metrics.ReplicationErrors, node, c.clk.Now(), 1)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	lag := c.clk.Now()
	if tr != nil {
		tr.FinishRoot(trace.Span{
			TraceID: tc.TraceID, ID: rootID,
			Name: "replication.forward", Verb: g.fnRapply,
			Node: node, Start: 0, End: lag,
		})
	}
	g.count(metrics.ReplicaLag, node, lag, float64(lag))
	return lag, firstErr
}

// enqueue appends one ReplAsync forward, reporting the queue depth and
// whether the caller should drain. Beyond the cap the op is dropped and
// counted in the dedicated hcl_replication_dropped series, stamped with
// real (wall-clock) time so the loss is attributable in a postmortem —
// bounded, visible loss instead of an unbounded goroutine pile (the loss
// semantics are documented in docs/REPLICATION.md).
func (g *replGroup[K, V]) enqueue(op replOp) (depth int, drain bool) {
	g.amu.Lock()
	defer g.amu.Unlock()
	if len(g.queue) >= asyncQueueCap {
		g.count(metrics.ReplicationDropped, g.servers[op.p], time.Now().UnixNano(), 1)
		return len(g.queue), false
	}
	g.queue = append(g.queue, op)
	return len(g.queue), len(g.queue) >= asyncDrainThreshold && !g.draining
}

// drainAsync forwards every queued op in FIFO order. One drainer at a
// time; ops enqueued during a drain are picked up by the next one, so
// per-partition order is preserved. Reports whether this call performed
// a drain pass (false: nothing queued, or another drainer owns the pass).
func (g *replGroup[K, V]) drainAsync() bool {
	g.amu.Lock()
	if g.draining || len(g.queue) == 0 {
		g.amu.Unlock()
		return false
	}
	g.draining = true
	batch := g.queue
	g.queue = nil
	g.amu.Unlock()

	for _, op := range batch {
		_, err := g.forwardAll(op.p, op.verb, op.kb, op.vb, op.epoch)
		_ = err // already counted per-holder by forwardAll
	}

	g.amu.Lock()
	g.draining = false
	g.drainGen++
	g.adone.Broadcast()
	g.amu.Unlock()
	return true
}

// Flush synchronously drains queued async forwards (ReplAsync only) and
// returns only once every op enqueued before the call has been forwarded.
// A concurrent drainer does not short-circuit it: Flush waits for the
// in-progress pass to finish, then drains anything enqueued meanwhile
// itself, looping until it observes an idle, empty queue.
func (g *replGroup[K, V]) Flush() {
	for {
		g.amu.Lock()
		if !g.draining && len(g.queue) == 0 {
			g.amu.Unlock()
			return
		}
		if g.draining {
			gen := g.drainGen
			for g.draining && g.drainGen == gen {
				g.adone.Wait()
			}
			g.amu.Unlock()
			continue
		}
		g.amu.Unlock()
		g.drainAsync()
	}
}

// isDead reports whether partition p crashed and awaits repair. Container
// find handlers use it to answer with deadReply instead of serving reads
// from a wiped primary.
func (g *replGroup[K, V]) isDead(p int) bool { return g.dead[p].Load() }

// deadReply is the framed find response of a crashed partition; clients
// recognize its payload with isDeadResp and fail over to a replica.
func deadReply() []byte { return append(ror.Reply(1), replStatusDead) }

func isDeadResp(resp []byte) bool {
	return len(resp) == 1 && resp[0] == replStatusDead
}

// ---------------------------------------------------------------------------
// Client-side helpers

// decodeMutResp decodes a status-prefixed mutation response from a
// replicated container's verb: [0, bool] on success, [1] when degraded.
func (g *replGroup[K, V]) decodeMutResp(resp []byte) (bool, error) {
	if len(resp) < 1 {
		return false, fmt.Errorf("hcl: %s: empty mutation response", g.name)
	}
	if resp[0] == replStatusDegraded {
		return false, fmt.Errorf("hcl: %s: %w", g.name, ErrDegraded)
	}
	return decodeBool(resp[1:])
}

// mutReply frames a handler-side mutation result for the wire.
func mutReply(res bool, err error) []byte {
	if err != nil {
		return append(ror.Reply(1), replStatusDegraded)
	}
	return append(ror.Reply(2), replStatusOK, bit(res))
}

// invokeMutation performs a replicated mutating verb remotely and decodes
// the status-prefixed response. In QuorumOne mode a primary that is down
// does not fail the write: it is applied at the first reachable replica
// (fenceless — the origin's lock cannot be taken from here).
func (g *replGroup[K, V]) invokeMutation(r ror.Caller, node int, fn string, arg []byte, verb byte, p int, kb, vb []byte) (bool, error) {
	resp, err := g.rt.engine.Invoke(r, node, fn, arg)
	if err != nil {
		if g.mode == QuorumOne && errors.Is(err, fabric.ErrNodeDown) {
			return g.failoverMutate(r, p, verb, kb, vb)
		}
		return false, err
	}
	return g.decodeMutResp(resp)
}

func (g *replGroup[K, V]) failoverMutate(r ror.Caller, p int, verb byte, kb, vb []byte) (bool, error) {
	arg := encodeRapply(p, replNoFence, verb, kb, vb, g.keyOnly)
	var lastErr error
	for _, h := range g.holders[p] {
		resp, err := g.rt.engine.Invoke(r, g.servers[h], g.fnRapply, arg)
		if err != nil {
			lastErr = err
			continue
		}
		if len(resp) == 2 && resp[0] == 1 {
			return resp[1] != 0, nil
		}
		lastErr = fmt.Errorf("replica %d rejected failover write", h)
	}
	return false, fmt.Errorf("hcl: %s: %w: primary down, no replica reachable: %v", g.name, ErrDegraded, lastErr)
}

// failoverFind reads k from the first reachable replica of p. The
// response has the container's own find shape; the caller decodes it.
// Only called after the primary returned ErrNodeDown.
func (g *replGroup[K, V]) failoverFind(r ror.Caller, p int, kb []byte) ([]byte, error) {
	arg := make([]byte, 4+len(kb))
	binary.LittleEndian.PutUint32(arg[:4], uint32(p))
	copy(arg[4:], kb)
	var lastErr error
	for _, h := range g.holders[p] {
		resp, err := g.rt.engine.Invoke(r, g.servers[h], g.fnRfind, arg)
		if err == nil && isMalformedResp(resp) {
			err = fmt.Errorf("hcl: %s: replica %d: %w", g.name, h, ErrMalformedFrame)
		}
		if err == nil && len(resp) == 1 && resp[0] == replStatusDead {
			err = fmt.Errorf("hcl: %s: replica %d crashed, awaiting repair", g.name, h)
		}
		if err == nil {
			g.count(metrics.FailoverReads, g.servers[h], r.Clock().Now(), 1)
			return resp, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// ---------------------------------------------------------------------------
// Crash / repair

// CrashNode simulates process death of a node: its primary partition and
// every replica copy it holds are wiped, and queued async forwards
// originating from its partition are discarded (they lived in the dead
// process's memory). Safe to call while clients are mutating: the wipe
// serializes behind any in-flight protocol step through the same locks.
func (g *replGroup[K, V]) CrashNode(node int) {
	p, hosted := g.byNode[node]
	if !hosted {
		return
	}
	g.locks[p].Lock()
	g.dead[p].Store(true)
	wipePart(g.prim(p))
	g.locks[p].Unlock()

	g.amu.Lock()
	kept := g.queue[:0]
	for _, op := range g.queue {
		if op.p != p {
			kept = append(kept, op)
		}
	}
	g.queue = kept
	g.amu.Unlock()

	for key, cp := range g.copies {
		if key.holder != p {
			continue
		}
		cp.mu.Lock()
		cp.m = containers.NewCuckooMapSize[K, V](16)
		cp.mu.Unlock()
	}
}

// RepairNode anti-entropy-repairs a restarted node before it rejoins:
// its primary partition is rebuilt from the lowest-numbered reachable
// replica (fencing stale in-flight forwards below a fresh epoch), then
// the replica copies it holds are refreshed from their origin primaries.
// Call while the node is still fenced off from clients (e.g. still
// marked down in the fault injector); an error means the partition could
// not be restored and the node must not serve.
func (g *replGroup[K, V]) RepairNode(node int) error {
	p, hosted := g.byNode[node]
	if !hosted {
		return nil
	}
	c := g.caller(node, repairOptions)
	tr := g.rt.engine.Tracer()
	var tc trace.Ctx
	var rootID uint64
	if tr != nil {
		tc, rootID = tr.StartTrace()
		c.clk.SetTrace(tc)
	}

	g.locks[p].Lock()
	newEpoch := g.epochs[p].Add(1)
	var recs [][]byte
	restored := false
	var lastErr error
	for _, h := range g.holders[p] {
		resp, err := g.rt.engine.Invoke(c, g.servers[h], g.fnRsnap, encodeRsnap(p, snapFromCopy, newEpoch))
		if err == nil && len(resp) == 1 && resp[0] == replStatusDead {
			err = fmt.Errorf("replica %d itself crashed", h)
		}
		if err != nil {
			lastErr = err
			continue
		}
		if recs, err = databox.DecodeList(resp); err != nil {
			lastErr = err
			continue
		}
		restored = true
		break
	}
	if !restored {
		g.locks[p].Unlock()
		return fmt.Errorf("hcl: %s: repair partition %d: no live replica: %w", g.name, p, lastErr)
	}
	if err := g.installPrimary(p, recs); err != nil {
		g.locks[p].Unlock()
		return fmt.Errorf("hcl: %s: repair partition %d: %w", g.name, p, err)
	}
	g.dead[p].Store(false)
	g.locks[p].Unlock()
	g.count(metrics.RepairKeys, node, c.clk.Now(), float64(len(recs)))

	// Refresh the replica copies this node holds from their origin
	// primaries, under each origin's replication lock so no acked
	// mutation straddles the snapshot.
	origins := make([]int, 0, g.n)
	for key := range g.copies {
		if key.holder == p {
			origins = append(origins, key.origin)
		}
	}
	sort.Ints(origins)
	for _, o := range origins {
		cp := g.copies[replKey{p, o}]
		g.locks[o].Lock()
		resp, err := g.rt.engine.Invoke(c, g.servers[o], g.fnRsnap, encodeRsnap(o, snapFromPrimary, 0))
		if err == nil && len(resp) == 1 && resp[0] == replStatusDead {
			err = fmt.Errorf("origin %d crashed", o)
		}
		if err != nil {
			g.locks[o].Unlock()
			return fmt.Errorf("hcl: %s: repair copy of partition %d: %w", g.name, o, err)
		}
		orecs, err := databox.DecodeList(resp)
		if err != nil {
			g.locks[o].Unlock()
			return fmt.Errorf("hcl: %s: repair copy of partition %d: %w", g.name, o, err)
		}
		fresh := containers.NewCuckooMapSize[K, V](16)
		for _, rec := range orecs {
			k, v, err := g.decodeRecord(rec)
			if err != nil {
				g.locks[o].Unlock()
				return fmt.Errorf("hcl: %s: repair copy of partition %d: %w", g.name, o, err)
			}
			fresh.Insert(k, v)
		}
		cp.mu.Lock()
		cp.m = fresh
		cp.mu.Unlock()
		g.locks[o].Unlock()
	}

	if tr != nil {
		tr.FinishRoot(trace.Span{
			TraceID: tc.TraceID, ID: rootID,
			Name: "replication.repair", Verb: g.fnRsnap,
			Node: node, Start: 0, End: c.clk.Now(),
		})
	}
	return nil
}

// installPrimary replaces the contents of primary partition p with the
// decoded snapshot records and invokes the journal-rewrite hook.
func (g *replGroup[K, V]) installPrimary(p int, recs [][]byte) error {
	part := g.prim(p)
	wipePart(part)
	for _, rec := range recs {
		k, v, err := g.decodeRecord(rec)
		if err != nil {
			return err
		}
		part.Insert(k, v)
	}
	if g.onRestore != nil {
		g.onRestore(p, recs)
	}
	return nil
}

func wipePart[K comparable, V any](part replPart[K, V]) {
	var stale []K
	part.Range(func(k K, _ V) bool {
		stale = append(stale, k)
		return true
	})
	for _, k := range stale {
		part.Delete(k)
	}
}
