package shmfab

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hcl/internal/fabric"
	"hcl/internal/memory"
	"hcl/internal/metrics"
	"hcl/internal/trace"
)

// Config describes one node's attachment to a shared-memory world.
// Every field shared with peers (Nodes, RingBytes, ArenaBytes) must be
// identical across processes — the rendezvous file verifies them.
type Config struct {
	// NodeID is this process's node (0-based).
	NodeID int
	// Nodes is the world size.
	Nodes int
	// Dir is the rendezvous directory holding the shared mapping. All
	// co-located ranks must name the same directory.
	Dir string
	// RingBytes sizes each directed ring's data region (power of two,
	// default 1 MiB). A frame may use at most half of it.
	RingBytes int
	// ArenaBytes sizes the shared segment arena (default 16 MiB) that
	// SharedSegment carves exported segments out of.
	ArenaBytes int
	// OpDeadline bounds each verb end-to-end (default 30s).
	OpDeadline time.Duration
	// DeadAfter pronounces a peer dead when its heartbeat has not moved
	// for this long (default 2s). Explicit death (Close, torn frames)
	// is detected immediately regardless.
	DeadAfter time.Duration
	// SpinSweeps is how many empty sweeps a poller spins (yielding the
	// processor between sweeps) before parking on the futex word
	// (default 128).
	SpinSweeps int
	// InlineHandlers declares this node's dispatcher non-blocking
	// (pure compute, no unbounded waits). In-process client goroutines
	// from peer ranks may then execute it inline while driving this
	// node's inbound ring — the zero-handoff round-trip fast path. Leave
	// false (the default) when handlers can block: inline execution
	// pins the calling client inside the handler, so a stuck handler
	// would override the client's own Options.Deadline.
	InlineHandlers bool
	// Collector, when non-nil, receives the transport counters
	// (fabric_shm_ring_full, fabric_shm_spins, fabric_shm_wakeups).
	Collector *metrics.Collector
	// Tracer, when non-nil, records client-side transport spans for
	// traced operations (the 0x80 frame extension).
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.RingBytes <= 0 {
		c.RingBytes = 1 << 20
	}
	if c.ArenaBytes <= 0 {
		c.ArenaBytes = 16 << 20
	}
	if c.OpDeadline <= 0 {
		c.OpDeadline = 30 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 2 * time.Second
	}
	if c.SpinSweeps <= 0 {
		c.SpinSweeps = 128
	}
	return c
}

// parkQuantum bounds one futex wait, so parked pollers keep heartbeating
// and checking peer liveness at ~1 kHz.
const parkQuantum = time.Millisecond

// maxPollers is a safety valve on promotion: beyond this many poller
// goroutines, inline dispatch proceeds without spawning a replacement.
const maxPollers = 256

type outRing struct {
	r  ring
	mu sync.Mutex // serializes this process's producers on one ring
}

// waiter states: the spin phase polls state with plain atomic loads (no
// channel machinery on the hot path); the channel only carries a token
// when the owner has durably parked.
const (
	waitPending uint32 = iota
	waitDone
	waitParked
)

type waiter struct {
	node   int
	verb   byte
	state  atomic.Uint32
	ch     chan struct{}
	err    error
	resp   []byte   // RPC response (escapes to the caller, fresh)
	buf    []byte   // Read destination (caller-owned)
	inline [17]byte // small fixed-size acks (CAS, FAA)
	n      int
	res    int64 // server residency from a traced response
	respAt int64
}

// deliver publishes the result fields written before the call and wakes
// the owner. A token is posted iff the owner durably parked (Swap
// observes waitParked), and the owner consumes it in every such path —
// tokens cannot leak into the pool.
func (w *waiter) deliver() {
	if w.state.Swap(waitDone) == waitParked {
		w.ch <- struct{}{}
	}
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan struct{}, 1)} }}

// worldPeers maps (world dir, node) to the Fabric attached in this
// process. Tests, benches, and single-process deployments map every rank
// into one address space; when the target rank is reachable here, the
// client goroutine drives the peer's inbound ring itself instead of
// yielding to the peer's poller — the frame still rides the shared ring
// with full checksum/SPSC discipline, but the round trip costs zero
// goroutine handoffs. Cross-process peers miss the map and take the
// poller + futex path.
var worldPeers sync.Map // peerKey -> *Fabric

// worldPeersGen counts changes to worldPeers: every attach and close
// bumps it, so a fabric's cached peer lookups (peerSlot) stay valid
// exactly while it is unchanged.
var worldPeersGen atomic.Uint64

type peerKey struct {
	dir  string
	node int
}

// peerSlot caches one worldPeers lookup, taken at generation gen.
type peerSlot struct {
	gen  uint64
	peer *Fabric
}

// pendShards stripes the in-flight waiter table by request id, so
// concurrent clients registering and pollers completing don't serialize
// on one mutex. Ids come from one counter, so the stripes fill evenly.
const pendShards = 16

type pendShard struct {
	mu sync.Mutex
	m  map[uint64]*waiter
}

func (f *Fabric) pendPut(id uint64, w *waiter) {
	s := &f.pend[id&(pendShards-1)]
	s.mu.Lock()
	s.m[id] = w
	s.mu.Unlock()
}

// pendTake removes and returns the waiter for id. Exactly one of the
// completer, the timeout path, and failPending wins the take — the
// winner owns delivery on w.ch.
func (f *Fabric) pendTake(id uint64) (*waiter, bool) {
	s := &f.pend[id&(pendShards-1)]
	s.mu.Lock()
	w, ok := s.m[id]
	if ok {
		delete(s.m, id)
	}
	s.mu.Unlock()
	return w, ok
}

func grabWaiter(node int, verb byte) *waiter {
	w := waiterPool.Get().(*waiter)
	w.node, w.verb = node, verb
	w.err, w.resp, w.buf, w.n, w.res, w.respAt = nil, nil, nil, 0, 0, 0
	w.state.Store(waitPending)
	return w
}

func putWaiter(w *waiter) {
	select {
	case <-w.ch: // drain a stale signal, if any
	default:
	}
	waiterPool.Put(w)
}

var timerPool = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

func grabTimer(d time.Duration) *time.Timer {
	tm := timerPool.Get().(*time.Timer)
	tm.Reset(d)
	return tm
}

func putTimer(tm *time.Timer) {
	if !tm.Stop() {
		select {
		case <-tm.C:
		default:
		}
	}
	timerPool.Put(tm)
}

// remoteError carries a peer's handler error text (status byte 0).
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return "shmfab: remote: " + e.msg }

// reviveRemote re-types a peer's error text as the fabric sentinel it
// started out as, so errors.Is works across the rings like it does for
// in-process providers.
func reviveRemote(msg string) error {
	for _, sentinel := range []error{fabric.ErrBadSegment, fabric.ErrOutOfBounds, fabric.ErrBadNode} {
		if strings.Contains(msg, sentinel.Error()) {
			return fmt.Errorf("shmfab: remote: %w", sentinel)
		}
	}
	return &remoteError{msg: msg}
}

type traceSyms struct {
	clientEnqueue, wire, response trace.Sym
	verbs                         [6]trace.Sym
}

func (s *traceSyms) intern(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	s.clientEnqueue = tr.Intern("client.enqueue")
	s.wire = tr.Intern("wire")
	s.response = tr.Intern("response")
	names := [6]string{"unknown", "rpc", "write", "read", "cas", "faa"}
	for i, n := range names {
		s.verbs[i] = tr.Intern(n)
	}
}

func (s *traceSyms) verbSym(typ byte) trace.Sym {
	typ &= frameVerb
	if typ >= frameRPC && typ <= frameFAA {
		return s.verbs[typ]
	}
	return s.verbs[0]
}

// Fabric is the shared-memory provider for one node.
type Fabric struct {
	cfg    Config
	lay    layout
	mf     *mapFile
	me     int
	dirKey string // cleaned world dir; worldPeers registry key

	disp []atomic.Pointer[fabric.Dispatcher]

	out []*outRing
	in  []*inRing

	pend   [pendShards]pendShard
	nextID atomic.Uint64

	segMu     sync.Mutex
	segs      map[int][]fabric.Segment
	sharedOff map[*memory.Segment]uint64 // arena offset + 1
	attach    sync.Map                   // uint64(node)<<32|id -> fabric.Segment

	peers     []atomic.Pointer[peerSlot] // per node; see inProcPeer
	deadLocal []atomic.Bool
	liveMu    sync.Mutex
	lastBeat  []uint64
	lastSeen  []time.Time

	numPollers  atomic.Int32
	freePollers atomic.Int32

	done   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
	start  time.Time
	syms   traceSyms
}

var _ fabric.Provider = (*Fabric)(nil)
var _ fabric.Optioned = (*Fabric)(nil)

func init() {
	fabric.Register("shm", func(cfg any) (fabric.Provider, error) {
		c, ok := cfg.(Config)
		if !ok {
			return nil, fmt.Errorf("shmfab: registry config must be shmfab.Config, got %T", cfg)
		}
		return New(c)
	})
}

// New attaches to (creating on first touch) the shared world under
// cfg.Dir and starts this node's resident poller.
func New(cfg Config) (*Fabric, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 1 {
		return nil, errors.New("shmfab: Nodes must be >= 1")
	}
	if cfg.NodeID < 0 || cfg.NodeID >= cfg.Nodes {
		return nil, fmt.Errorf("shmfab: NodeID %d out of range [0,%d)", cfg.NodeID, cfg.Nodes)
	}
	if cfg.Dir == "" {
		return nil, errors.New("shmfab: Dir is required")
	}
	if cfg.RingBytes&(cfg.RingBytes-1) != 0 || cfg.RingBytes < 4096 {
		return nil, fmt.Errorf("shmfab: RingBytes %d must be a power of two >= 4096", cfg.RingBytes)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	lay := computeLayout(cfg.Nodes, cfg.RingBytes, cfg.ArenaBytes)
	mf, err := openMapFile(filepath.Join(cfg.Dir, "world.shm"), lay.total)
	if err != nil {
		return nil, err
	}
	// First attacher stamps the header; everyone verifies it. CAS from
	// zero makes concurrent first attaches converge.
	stamp := func(off int, v uint64) bool {
		return mf.cas64(off, 0, v) || mf.load64(off) == v
	}
	if !stamp(hdrMagic, magic) || !stamp(hdrNodes, uint64(cfg.Nodes)) ||
		!stamp(hdrRingBytes, uint64(cfg.RingBytes)) || !stamp(hdrArena, uint64(cfg.ArenaBytes)) {
		mf.close()
		return nil, fmt.Errorf("shmfab: %s/world.shm was created with a different Config", cfg.Dir)
	}

	f := &Fabric{
		cfg:       cfg,
		lay:       lay,
		mf:        mf,
		me:        cfg.NodeID,
		dirKey:    filepath.Clean(cfg.Dir),
		disp:      make([]atomic.Pointer[fabric.Dispatcher], cfg.Nodes),
		out:       make([]*outRing, cfg.Nodes),
		in:        make([]*inRing, cfg.Nodes),
		segs:      make(map[int][]fabric.Segment),
		sharedOff: make(map[*memory.Segment]uint64),
		peers:     make([]atomic.Pointer[peerSlot], cfg.Nodes),
		deadLocal: make([]atomic.Bool, cfg.Nodes),
		lastBeat:  make([]uint64, cfg.Nodes),
		lastSeen:  make([]time.Time, cfg.Nodes),
		done:      make(chan struct{}),
		start:     time.Now(),
	}
	f.syms.intern(cfg.Tracer)
	for i := range f.pend {
		f.pend[i].m = make(map[uint64]*waiter)
	}
	now := time.Now()
	for j := 0; j < cfg.Nodes; j++ {
		f.lastSeen[j] = now
		if j == f.me {
			continue
		}
		f.out[j] = &outRing{r: f.ringView(f.me, j)}
		ir := &inRing{r: f.ringView(j, f.me)}
		ir.scan = ir.r.loadHead()
		f.in[j] = ir
	}
	nb := lay.nodeBlockOff(f.me)
	mf.add64(nb+nbEpoch, 1)
	mf.store64(nb+nbBeat, 1)
	mf.store64(nb+nbState, stateAlive)
	f.addPoller(true)
	worldPeers.Store(peerKey{f.dirKey, f.me}, f) // latest attacher wins
	worldPeersGen.Add(1)
	return f, nil
}

// detach removes this fabric from worldPeers, invalidating every cached
// lookup of it.
func (f *Fabric) detach() {
	worldPeers.CompareAndDelete(peerKey{f.dirKey, f.me}, f)
	worldPeersGen.Add(1)
}

// inProcPeer returns node's fabric when it is attached in this process
// and alive, nil otherwise (see worldPeers). The lookup is cached per
// node and revalidated against worldPeersGen, so the round-trip path
// pays two atomic loads instead of hashing a (dir, node) key.
func (f *Fabric) inProcPeer(node int) *Fabric {
	gen := worldPeersGen.Load()
	s := f.peers[node].Load()
	if s == nil || s.gen != gen {
		s = &peerSlot{gen: gen}
		if v, ok := worldPeers.Load(peerKey{f.dirKey, node}); ok {
			s.peer = v.(*Fabric)
		}
		f.peers[node].Store(s)
	}
	if p := s.peer; p != nil && !p.closed.Load() {
		return p
	}
	return nil
}

func (f *Fabric) ringView(i, j int) ring {
	off := f.lay.ringOff(i, j)
	return ring{
		hdr:  f.mf.data[off : off+ringHdrLen],
		data: f.mf.data[off+ringHdrLen : off+ringHdrLen+f.lay.ringBytes],
		mask: uint64(f.lay.ringBytes - 1),
	}
}

// Name reports the provider name.
func (f *Fabric) Name() string { return "shm" }

// NumNodes reports the world size.
func (f *Fabric) NumNodes() int { return f.cfg.Nodes }

// Collector exposes the configured metrics collector (the runtime's
// provider-unwrapping auto-wiring looks for exactly this method).
func (f *Fabric) Collector() *metrics.Collector { return f.cfg.Collector }

// Tracer exposes the configured span tracer (same auto-wiring contract).
func (f *Fabric) Tracer() *trace.Tracer { return f.cfg.Tracer }

// SetDispatcher installs the RPC dispatcher for a node. Only the entry
// for this fabric's own node is ever executed here; remote entries are
// kept so the id space stays symmetric with other providers.
func (f *Fabric) SetDispatcher(node int, d fabric.Dispatcher) {
	if node < 0 || node >= f.cfg.Nodes {
		return
	}
	f.disp[node].Store(&d)
}

func (f *Fabric) countWall(kind metrics.Kind, node int, v float64) {
	if f.cfg.Collector != nil {
		f.cfg.Collector.Add(kind, node, time.Since(f.start).Nanoseconds(), v)
	}
}

// --- liveness ----------------------------------------------------------

func (f *Fabric) parkWord(node int) *uint32 {
	return f.mf.word32(f.lay.nodeBlockOff(node) + nbPark)
}

func (f *Fabric) nodeDead(node int) bool {
	return f.deadLocal[node].Load() ||
		f.mf.load64(f.lay.nodeBlockOff(node)+nbState) == stateDead
}

// markDead records a peer as locally dead and fails every pending
// operation against it with fabric.ErrNodeDown.
func (f *Fabric) markDead(node int) {
	if f.deadLocal[node].Swap(true) {
		return
	}
	f.failPending(node, fmt.Errorf("shmfab: node %d: %w", node, fabric.ErrNodeDown))
}

// tornPeer handles a checksum-invalid inbound record: only a producer
// dying mid-write can publish one, so the peer is pronounced crashed.
func (f *Fabric) tornPeer(node int) { f.markDead(node) }

func (f *Fabric) failPending(node int, err error) {
	var hit []*waiter
	for i := range f.pend {
		s := &f.pend[i]
		s.mu.Lock()
		for id, w := range s.m {
			if node < 0 || w.node == node {
				delete(s.m, id)
				hit = append(hit, w)
			}
		}
		s.mu.Unlock()
	}
	for _, w := range hit {
		w.err = err
		w.deliver()
	}
}

// liveness scans peer state words and heartbeats. Explicitly dead peers
// fail immediately; a peer whose heartbeat stalls for DeadAfter is
// pronounced dead too (and revived if it ever beats again).
func (f *Fabric) liveness() {
	now := time.Now()
	for j := 0; j < f.cfg.Nodes; j++ {
		if j == f.me {
			continue
		}
		nb := f.lay.nodeBlockOff(j)
		st := f.mf.load64(nb + nbState)
		if st == stateDead {
			f.markDead(j)
			continue
		}
		beat := f.mf.load64(nb + nbBeat)
		f.liveMu.Lock()
		if beat != f.lastBeat[j] || st != stateAlive {
			f.lastBeat[j] = beat
			f.lastSeen[j] = now
			if st == stateAlive && f.deadLocal[j].Load() {
				f.deadLocal[j].Store(false) // peer rejoined
			}
			f.liveMu.Unlock()
			continue
		}
		stale := now.Sub(f.lastSeen[j]) > f.cfg.DeadAfter
		f.liveMu.Unlock()
		if stale {
			f.markDead(j)
		}
	}
}

// --- producers ---------------------------------------------------------

func writeRecHdr(rec []byte, plen int, id uint64, typ byte) {
	put32(rec, uint32(plen))
	put64(rec[8:], id)
	rec[16] = typ
	for i := 17; i < recHdr; i++ {
		rec[i] = 0
	}
}

// acquire reserves a contiguous record of plen payload bytes in the ring
// to node, spinning (with processor yields) while the ring is full. On
// success the out-ring mutex is HELD; the caller writes the record and
// calls publish. Deadline expiry, peer death, and Close all abort.
func (f *Fabric) acquire(node, plen int, deadlineAt time.Time) (*outRing, []byte, uint64, error) {
	o := f.out[node]
	need := uint64(recSize(plen))
	capB := uint64(len(o.r.data))
	// Half the ring bounds a single frame: such a frame always fits once
	// the consumer drains (even when a wrap marker burns the ring tail).
	if need > capB/2 {
		return nil, nil, 0, fmt.Errorf("shmfab: %w: %d-byte frame exceeds ring budget (%d)", errFrameBudget, plen, capB/2)
	}
	o.mu.Lock()
	tail := o.r.loadTail()
	stalled := false
	for {
		if f.closed.Load() {
			o.mu.Unlock()
			return nil, nil, 0, fabric.ErrClosed
		}
		if f.nodeDead(node) {
			o.mu.Unlock()
			return nil, nil, 0, fmt.Errorf("shmfab: node %d: %w", node, fabric.ErrNodeDown)
		}
		head := o.r.loadHead()
		pos := tail & o.r.mask
		cont := capB - pos
		total := need
		if cont < need {
			total = cont + need // a wrap marker burns the remainder
		}
		if capB-(tail-head) >= total {
			if cont < need {
				put32(o.r.data[pos:], wrapMark)
				tail += cont
				pos = 0
			}
			return o, o.r.data[pos : pos+need], tail + need, nil
		}
		if !stalled {
			stalled = true
			// A zero deadlineAt means "default deadline, clocked from the
			// first stall" — responders pass it so the uncontended send
			// path never reads the wall clock.
			if deadlineAt.IsZero() {
				deadlineAt = time.Now().Add(f.cfg.OpDeadline)
			}
			f.countWall(metrics.ShmRingFull, node, 1)
		}
		if time.Now().After(deadlineAt) {
			o.mu.Unlock()
			return nil, nil, 0, fmt.Errorf("shmfab: ring to node %d full: %w", node, fabric.ErrTimeout)
		}
		f.wakePeer(node) // a parked consumer cannot drain the ring
		runtime.Gosched()
	}
}

// publish makes the reserved record visible and releases the ring. wake
// is false when the producer itself will drive the consumer's ring (the
// in-process assist path): a parked poller then resumes on its own at
// parkQuantum anyway, and skipping the futex syscall keeps the hot path
// user-space only.
func (f *Fabric) publish(o *outRing, node int, newTail uint64, wake bool) {
	o.r.storeTail(newTail)
	o.mu.Unlock()
	if wake {
		f.wakePeer(node)
	}
}

func (f *Fabric) wakePeer(node int) {
	pw := f.parkWord(node)
	if atomic.LoadUint32(pw) != 0 {
		atomic.StoreUint32(pw, 0)
		futexWake(pw, 1<<30)
		f.countWall(metrics.ShmWakeups, node, 1)
	}
}

// send writes one record (ext, then up to two payload parts, all
// checksummed together) into the ring to node. wake as in publish.
func (f *Fabric) send(node int, typ byte, id uint64, ext, p1, p2 []byte, deadlineAt time.Time, wake bool) error {
	plen := len(ext) + len(p1) + len(p2)
	o, rec, newTail, err := f.acquire(node, plen, deadlineAt)
	if err != nil {
		return err
	}
	writeRecHdr(rec, plen, id, typ)
	n := recHdr
	n += copy(rec[n:], ext)
	n += copy(rec[n:], p1)
	copy(rec[n:], p2)
	put32(rec[4:], recCsum(rec, plen))
	f.publish(o, node, newTail, wake)
	return nil
}

// --- consumers ---------------------------------------------------------

func (f *Fabric) addPoller(resident bool) {
	if !resident && f.numPollers.Load() >= maxPollers {
		return
	}
	f.numPollers.Add(1)
	f.freePollers.Add(1)
	f.wg.Add(1)
	go f.pollLoop(resident)
}

func (f *Fabric) pollLoop(resident bool) {
	defer f.wg.Done()
	idle := 0
	for {
		select {
		case <-f.done:
			f.freePollers.Add(-1)
			f.numPollers.Add(-1)
			return
		default:
		}
		did := false
		for j := 0; j < f.cfg.Nodes; j++ {
			if j != f.me && f.sweep(j) {
				did = true
			}
		}
		f.mf.add64(f.lay.nodeBlockOff(f.me)+nbBeat, 1)
		if did {
			idle = 0
			continue
		}
		idle++
		if idle < f.cfg.SpinSweeps {
			runtime.Gosched()
			continue
		}
		if !resident {
			// Surplus promoted pollers retire once another free poller
			// remains to serve the rings.
			f.freePollers.Add(-1)
			if f.freePollers.Load() >= 1 {
				f.numPollers.Add(-1)
				return
			}
			f.freePollers.Add(1)
		}
		f.countWall(metrics.ShmSpins, f.me, float64(idle))
		f.park()
		idle = 0
	}
}

func (f *Fabric) anyInbound() bool {
	for j := 0; j < f.cfg.Nodes; j++ {
		if j == f.me {
			continue
		}
		if r := &f.in[j].r; r.loadTail() != r.loadHead() {
			return true
		}
	}
	return false
}

// park publishes the parked flag, re-checks the rings (the lost-wakeup
// guard: a producer that published before seeing the flag won't wake
// us), and waits on the futex word for at most parkQuantum, so parked
// nodes keep heartbeating and noticing dead peers.
func (f *Fabric) park() {
	pw := f.parkWord(f.me)
	atomic.StoreUint32(pw, 1)
	if f.anyInbound() || f.closed.Load() {
		atomic.StoreUint32(pw, 0)
		return
	}
	futexWait(pw, 1, parkQuantum)
	atomic.StoreUint32(pw, 0)
	f.liveness()
}

// sweep drains node j's inbound ring: responses complete waiters,
// one-sided verbs execute in order, RPCs dispatch in place (the payload
// is the ring's memory — zero-copy) with poller promotion so a blocking
// handler never starves the rings. Returns whether any record was
// consumed.
func (f *Fabric) sweep(j int) bool {
	ir := f.in[j]
	// Fully drained and folded (tail == head can hold only then: head
	// trails scan while any window entry is outstanding) — skip the
	// TryLock/fold dance. Co-polling clients hammer this on every spin.
	if ir.r.loadTail() == ir.r.loadHead() {
		return false
	}
	if !ir.mu.TryLock() {
		return false
	}
	did := false
	for !ir.dead {
		ir.fold()
		tail := ir.r.loadTail()
		if ir.scan >= tail {
			break
		}
		capB := uint64(len(ir.r.data))
		pos := ir.scan & ir.r.mask
		cont := capB - pos
		if plen32 := le32(ir.r.data[pos:]); plen32 == wrapMark {
			fin := ir.grab(ir.scan + cont)
			fin.done.Store(true)
			ir.window = append(ir.window, fin)
			ir.scan += cont
			did = true
			continue
		}
		plen := int(le32(ir.r.data[pos:]))
		need := uint64(recSize(plen))
		if plen < 0 || plen > len(ir.r.data)-recHdr || need > cont || ir.scan+need > tail {
			ir.dead = true
			f.tornPeer(j)
			break
		}
		rec := ir.r.data[pos : pos+need]
		if recCsum(rec, plen) != le32(rec[4:]) {
			ir.dead = true
			f.tornPeer(j)
			break
		}
		id := le64(rec[8:])
		typ := rec[16]
		body := rec[recHdr : recHdr+plen]
		did = true
		fin := ir.grab(ir.scan + need)
		ir.window = append(ir.window, fin)
		ir.scan += need
		switch {
		case typ&frameResp != 0:
			f.complete(id, typ, body)
			fin.done.Store(true)
		case typ&frameVerb != frameRPC:
			f.handleOneSided(j, typ, id, body)
			fin.done.Store(true)
		default:
			// Dispatch in place: release the ring so other pollers keep
			// consuming, promote a standby if this was the last free
			// poller, and only then run the (possibly blocking) handler.
			ir.mu.Unlock()
			f.dispatchRPC(j, typ, id, body)
			fin.done.Store(true)
			ir.mu.Lock()
		}
	}
	ir.fold()
	ir.mu.Unlock()
	return did
}

// dispatchRPC runs the local dispatcher on an in-place request payload
// and ships the status-prefixed response back on the reverse ring.
func (f *Fabric) dispatchRPC(from int, typ byte, id uint64, body []byte) {
	if f.freePollers.Add(-1) <= 0 {
		f.addPoller(false)
	}
	defer f.freePollers.Add(1)
	traced := typ&frameTraced != 0
	var arrival int64
	if traced {
		if len(body) >= trace.CtxWireLen {
			body = body[trace.CtxWireLen:]
		}
		arrival = trace.NowNS()
	}
	var status [1]byte
	var resp []byte
	if dpp := f.disp[f.me].Load(); dpp != nil {
		out, _ := (*dpp)(body)
		status[0] = 1
		resp = out
	} else {
		status[0] = 0
		resp = []byte("shmfab: no dispatcher")
	}
	var ext []byte
	var resArr [8]byte
	rtyp := (typ & ^frameTraced) | frameResp
	if traced {
		put64(resArr[:], uint64(trace.NowNS()-arrival))
		ext = resArr[:]
		rtyp |= frameTraced
	}
	f.respond(from, rtyp, id, ext, status, resp)
}

var (
	errShortSegOff = errors.New("shmfab: short seg/off header")
	errFrameBudget = errors.New("shmfab: frame too large")
)

// respond ships a response, downgrading an over-budget payload to an
// error response (which always fits) instead of dropping it — a silent
// drop would turn a size limit into an opaque client timeout.
func (f *Fabric) respond(to int, rtyp byte, id uint64, ext []byte, status [1]byte, payload []byte) {
	// Zero deadline: acquire clocks the default OpDeadline from the first
	// stall, keeping time.Now off the response fast path. An in-process
	// requester co-polls its own rings, so the futex wake is skipped too.
	wake := f.inProcPeer(to) == nil
	err := f.send(to, rtyp, id, ext, status[:], payload, time.Time{}, wake)
	if errors.Is(err, errFrameBudget) {
		status[0] = 0
		_ = f.send(to, rtyp, id, ext, status[:],
			[]byte(fmt.Sprintf("shmfab: %d-byte response exceeds ring budget", len(payload))), time.Time{}, wake)
	}
}

func splitSegOff(b []byte) (seg, off int, rest []byte, err error) {
	if len(b) < 16 {
		return 0, 0, nil, errShortSegOff
	}
	return int(le64(b)), int(le64(b[8:])), b[16:], nil
}

// handleOneSided executes a remote one-sided verb against a locally
// registered segment, in ring order (the frame loop discipline tcpfab
// established), and responds on the reverse ring.
func (f *Fabric) handleOneSided(from int, typ byte, id uint64, body []byte) {
	traced := typ&frameTraced != 0
	var arrival int64
	if traced {
		if len(body) >= trace.CtxWireLen {
			body = body[trace.CtxWireLen:]
		}
		arrival = trace.NowNS()
	}
	var inline [17]byte
	var out []byte
	var failure error
	switch typ & frameVerb {
	case frameWrite:
		seg, off, rest, err := splitSegOff(body)
		if err == nil {
			var s fabric.Segment
			if s, err = f.localSegment(seg); err == nil {
				err = s.WriteAt(off, rest)
			}
		}
		failure = err
	case frameRead:
		seg, off, rest, err := splitSegOff(body)
		if err != nil || len(rest) != 8 {
			failure = errors.New("shmfab: bad read frame")
			break
		}
		want := le64(rest)
		if int(want) > len(f.out[from].r.data)/2-recHdr-16 {
			failure = fmt.Errorf("shmfab: read length %d exceeds ring budget", want)
			break
		}
		s, err := f.localSegment(seg)
		if err != nil {
			failure = err
			break
		}
		buf := make([]byte, want)
		if err := s.ReadAt(off, buf); err != nil {
			failure = err
			break
		}
		out = buf
	case frameCAS:
		seg, off, rest, err := splitSegOff(body)
		if err != nil || len(rest) != 16 {
			failure = errors.New("shmfab: bad cas frame")
			break
		}
		s, err := f.localSegment(seg)
		if err != nil {
			failure = err
			break
		}
		witness, ok := s.CAS64(off, le64(rest), le64(rest[8:]))
		put64(inline[:8], witness)
		inline[8] = 0
		if ok {
			inline[8] = 1
		}
		out = inline[:9]
	case frameFAA:
		seg, off, rest, err := splitSegOff(body)
		if err != nil || len(rest) != 8 {
			failure = errors.New("shmfab: bad faa frame")
			break
		}
		s, err := f.localSegment(seg)
		if err != nil {
			failure = err
			break
		}
		delta := le64(rest)
		put64(inline[:8], s.Add64(off, delta)-delta)
		out = inline[:8]
	default:
		failure = fmt.Errorf("shmfab: unknown frame type %d", typ)
	}
	var status [1]byte
	if failure != nil {
		status[0] = 0
		out = []byte(failure.Error())
	} else {
		status[0] = 1
	}
	var ext []byte
	var resArr [8]byte
	rtyp := (typ & ^frameTraced) | frameResp
	if traced {
		put64(resArr[:], uint64(trace.NowNS()-arrival))
		ext = resArr[:]
		rtyp |= frameTraced
	}
	f.respond(from, rtyp, id, ext, status, out)
}

// complete delivers a response record to its waiter. The payload is
// copied out (into the caller's buffer, the inline ack array, or a
// fresh RPC response allocation) before head may advance.
func (f *Fabric) complete(id uint64, typ byte, body []byte) {
	traced := typ&frameTraced != 0
	var res int64
	if traced && len(body) >= 8 {
		res = int64(le64(body))
		body = body[8:]
	}
	w, ok := f.pendTake(id)
	if !ok {
		return // timed out or failed over; drop
	}
	w.res = res
	if traced {
		// Untraced completions skip the clock read — nobody consumes
		// respAt and nanotime is expensive on virtualized clocksources.
		w.respAt = trace.NowNS()
	}
	switch {
	case len(body) < 1:
		w.err = errors.New("shmfab: empty response")
	case body[0] == 0:
		w.err = reviveRemote(string(body[1:]))
	case w.buf != nil:
		if len(body)-1 != len(w.buf) {
			w.err = fmt.Errorf("shmfab: read returned %d bytes, want %d", len(body)-1, len(w.buf))
		} else {
			copy(w.buf, body[1:])
		}
	case w.verb == frameRPC:
		w.resp = append([]byte(nil), body[1:]...)
	default:
		w.n = copy(w.inline[:], body[1:])
	}
	w.deliver()
}
