package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hcl/internal/cluster"
	"hcl/internal/metrics"
)

// Multi-key, cross-container transactions (Storm-style; docs/TRANSACTIONS.md).
//
// The client runs the transaction body against a Tx that performs
// optimistic version-stamped reads and buffers writes, then commits with
// a two-phase protocol piggybacked on the multiplexed transport:
//
//	prepare  — per participant partition, in global (node, container,
//	           partition) order: validate the read set's versions and take
//	           the partition's txn owner slot. Never blocks: a busy owner
//	           or a stale version answers txnStatusConflict and the whole
//	           transaction retries from scratch.
//	decide   — commit (apply the buffered writes through the container's
//	           normal mutation path, replication and lease revocation
//	           included, then release) or abort (just release).
//
// Because every transaction acquires owner slots in the same global
// order and a taken slot conflicts instead of blocking, the protocol is
// deadlock-free by construction. Crash/repair bumps the partition's txn
// epoch and version floor, so transactions prepared across a fault are
// fenced into an abort rather than committing against restored state.

// ErrTxnConflict reports optimistic validation failure: a read-set entry
// changed version, or a participant partition was prepared by another
// transaction. Nothing was applied; Txn retries automatically and
// surfaces this error only once the retry budget is exhausted.
var ErrTxnConflict = errors.New("transaction conflict: stale read set or busy partition")

// ErrTxnPartial reports a commit interrupted between its decide calls —
// the transaction passed its commit point but at least one participant
// could not confirm applying it (node down or fenced by a crash/repair
// mid-decide). Without a coordinator log the outcome at that participant
// is unknown; callers must treat the transaction like a timed-out op.
var ErrTxnPartial = errors.New("transaction outcome unknown: commit interrupted mid-decide")

// txnMaxAttempts bounds the automatic retry loop in Txn.
const txnMaxAttempts = 16

// Wire sub-ops, verbs and status bytes.
const (
	txnSubRead    byte = 1 // versioned read, rides the prepare verb
	txnSubPrepare byte = 2

	txnVerbPut byte = 1
	txnVerbDel byte = 2

	txnStatusOK        byte = 0
	txnStatusConflict  byte = 1 // validation failed / owner busy / partition dead
	txnStatusLost      byte = 2 // decide-commit arrived after a fence; outcome lost
	txnStatusMalformed byte = 3 // frame failed validation
)

// txnDoneRing bounds the per-partition memory of recently decided
// transaction ids kept for idempotent decide retries.
const txnDoneRing = 128

// txnIDs hands out process-unique transaction ids.
var txnIDs atomic.Uint64

// ---------------------------------------------------------------------------
// Server-side state

// txnStripeBits sizes each partition's version table: 2^txnStripeBits
// slots, 8 KiB per partition however many keys it holds.
const txnStripeBits = 10

// txnPart is the per-partition transaction state at the primary.
type txnPart struct {
	mu sync.Mutex
	// vers is the striped version table: slot txnStripe(kb) holds the
	// version of the latest mutation of any key hashing there. Keys that
	// share a slot share a version, so a write to one can fail validation
	// of a read of another (a spurious conflict, retried), but a write to
	// a key always moves the version its readers validate against (never
	// a missed conflict). Allocated on the first mutation.
	vers  *[1 << txnStripeBits]uint64
	seq   uint64 // monotonic version source, never reset
	floor uint64 // minimum version any key reports (crash/repair fence)
	epoch uint64 // bumped by CrashNode/RepairNode; prepares pin it
	owner uint64 // txn id holding this partition prepared; 0 = free

	done  map[uint64]bool // recently committed txn ids (idempotent retry)
	ring  [txnDoneRing]uint64
	ringI int
}

// txnStripe maps an encoded key to its version-table slot: the high bits
// of a multiplicative remix of the routing hash, so the slot does not
// repeat the low bits that chose the partition.
func txnStripe(kb []byte) uint64 {
	return (StableHash64(kb) * 0x9E3779B97F4A7C15) >> (64 - txnStripeBits)
}

// version reports the current version of an encoded key: its slot's
// version, or the floor when that is higher. Crash/repair bumps the floor
// past every previously handed-out version — so a read taken before the
// fault can never validate after it.
func (tp *txnPart) version(kb []byte) uint64 {
	if tp.vers != nil {
		if v := tp.vers[txnStripe(kb)]; v > tp.floor {
			return v
		}
	}
	return tp.floor
}

func (tp *txnPart) bump(kb []byte) {
	tp.seq++
	if tp.vers == nil {
		tp.vers = new([1 << txnStripeBits]uint64)
	}
	tp.vers[txnStripe(kb)] = tp.seq
}

func (tp *txnPart) markDone(id uint64) {
	if tp.done == nil {
		tp.done = make(map[uint64]bool, txnDoneRing)
	}
	if old := tp.ring[tp.ringI]; old != 0 {
		delete(tp.done, old)
	}
	tp.ring[tp.ringI] = id
	tp.ringI = (tp.ringI + 1) % txnDoneRing
	tp.done[id] = true
}

// fence invalidates every outstanding read and prepare against this
// partition: versions floor past anything handed out, the epoch moves so
// prepared owners can never decide-commit, and the owner slot frees.
func (tp *txnPart) fence() {
	tp.mu.Lock()
	tp.floor = tp.seq + 1
	tp.seq = tp.floor
	tp.epoch++
	tp.owner = 0
	tp.mu.Unlock()
}

// txnState is one container's transaction plane: per-partition slots
// plus the container-supplied closures the verb handlers run through.
type txnState struct {
	parts []txnPart

	// read returns the current encoded value of kb on partition p.
	read func(p int, kb []byte) (vb []byte, ok bool, err error)
	// applyWrite applies one buffered write through the container's full
	// mutation path (journal, replication quorum, lease revocation,
	// version bump). It reports the replication forward cost.
	applyWrite func(p int, verb byte, kb, vb []byte) (int64, error)
	// dead reports whether p crashed and awaits repair.
	dead func(p int) bool
}

func newTxnState(n int) *txnState {
	return &txnState{parts: make([]txnPart, n)}
}

// bump records a mutation of kb on partition p. Callers run it after the
// primary-side apply so a concurrent versioned read can never observe the
// old value with the new version (the unsafe direction); the benign
// inverse race only costs a spurious conflict.
func (st *txnState) bump(p int, kb []byte) {
	if st == nil {
		return
	}
	tp := &st.parts[p]
	tp.mu.Lock()
	tp.bump(kb)
	tp.mu.Unlock()
}

// Fence invalidates partition p's transaction state (crash/repair hook).
func (st *txnState) Fence(p int) {
	if st == nil || p < 0 || p >= len(st.parts) {
		return
	}
	st.parts[p].fence()
}

// ---------------------------------------------------------------------------
// Wire encoding

// encodeTxnRead: [1B sub=read][kb].
func encodeTxnRead(kb []byte) []byte {
	out := make([]byte, 1+len(kb))
	out[0] = txnSubRead
	copy(out[1:], kb)
	return out
}

// txnReadResp: [1B status][8B version][1B ok][vb].
func encodeTxnReadResp(ver uint64, ok bool, vb []byte) []byte {
	out := make([]byte, 10+len(vb))
	out[0] = txnStatusOK
	binary.LittleEndian.PutUint64(out[1:9], ver)
	if ok {
		out[9] = 1
	}
	copy(out[10:], vb)
	return out
}

func decodeTxnReadResp(resp []byte) (ver uint64, ok bool, vb []byte, err error) {
	if len(resp) == 1 && resp[0] != txnStatusOK {
		return 0, false, nil, txnStatusErr(resp[0])
	}
	if len(resp) < 10 || resp[0] != txnStatusOK {
		return 0, false, nil, fmt.Errorf("hcl: bad txn read response (%d bytes)", len(resp))
	}
	return binary.LittleEndian.Uint64(resp[1:9]), resp[9] != 0, resp[10:], nil
}

// encodeTxnPrepare: [1B sub=prepare][8B txnID][4B nreads]
// then per read: [4B len kb][kb][8B version].
func encodeTxnPrepare(id uint64, reads []txnRead) []byte {
	n := 13
	for _, rd := range reads {
		n += 12 + len(rd.kb)
	}
	out := make([]byte, n)
	out[0] = txnSubPrepare
	binary.LittleEndian.PutUint64(out[1:9], id)
	binary.LittleEndian.PutUint32(out[9:13], uint32(len(reads)))
	off := 13
	for _, rd := range reads {
		binary.LittleEndian.PutUint32(out[off:], uint32(len(rd.kb)))
		off += 4
		copy(out[off:], rd.kb)
		off += len(rd.kb)
		binary.LittleEndian.PutUint64(out[off:], rd.ver)
		off += 8
	}
	return out
}

func decodeTxnPrepare(arg []byte) (id uint64, reads []txnRead, err error) {
	malformed := func(f string, a ...any) (uint64, []txnRead, error) {
		return 0, nil, fmt.Errorf("%w: txn prepare: %s", ErrMalformedFrame, fmt.Sprintf(f, a...))
	}
	if len(arg) < 13 {
		return malformed("short frame (%d bytes)", len(arg))
	}
	id = binary.LittleEndian.Uint64(arg[1:9])
	n := int(binary.LittleEndian.Uint32(arg[9:13]))
	if n < 0 || n > len(arg) {
		return malformed("read count %d exceeds frame", n)
	}
	off := 13
	reads = make([]txnRead, 0, n)
	for i := 0; i < n; i++ {
		if off+4 > len(arg) {
			return malformed("truncated read %d", i)
		}
		kl := int(binary.LittleEndian.Uint32(arg[off:]))
		off += 4
		if kl < 0 || off+kl+8 > len(arg) {
			return malformed("truncated read %d key", i)
		}
		reads = append(reads, txnRead{
			kb:  arg[off : off+kl],
			ver: binary.LittleEndian.Uint64(arg[off+kl:]),
		})
		off += kl + 8
	}
	return id, reads, nil
}

// encodeTxnDecide: [8B txnID][1B commit][4B nwrites]
// then per write: [1B verb][4B len kb][kb][4B len vb][vb].
func encodeTxnDecide(id uint64, commit bool, writes []txnWrite) []byte {
	n := 13
	for _, w := range writes {
		n += 9 + len(w.kb) + len(w.vb)
	}
	out := make([]byte, n)
	binary.LittleEndian.PutUint64(out[:8], id)
	if commit {
		out[8] = 1
	}
	binary.LittleEndian.PutUint32(out[9:13], uint32(len(writes)))
	off := 13
	for _, w := range writes {
		out[off] = w.verb
		off++
		binary.LittleEndian.PutUint32(out[off:], uint32(len(w.kb)))
		off += 4
		copy(out[off:], w.kb)
		off += len(w.kb)
		binary.LittleEndian.PutUint32(out[off:], uint32(len(w.vb)))
		off += 4
		copy(out[off:], w.vb)
		off += len(w.vb)
	}
	return out
}

func decodeTxnDecide(arg []byte) (id uint64, commit bool, writes []txnWrite, err error) {
	malformed := func(f string, a ...any) (uint64, bool, []txnWrite, error) {
		return 0, false, nil, fmt.Errorf("%w: txn decide: %s", ErrMalformedFrame, fmt.Sprintf(f, a...))
	}
	if len(arg) < 13 {
		return malformed("short frame (%d bytes)", len(arg))
	}
	id = binary.LittleEndian.Uint64(arg[:8])
	commit = arg[8] != 0
	n := int(binary.LittleEndian.Uint32(arg[9:13]))
	if n < 0 || n > len(arg) {
		return malformed("write count %d exceeds frame", n)
	}
	off := 13
	writes = make([]txnWrite, 0, n)
	for i := 0; i < n; i++ {
		if off+5 > len(arg) {
			return malformed("truncated write %d", i)
		}
		verb := arg[off]
		if verb != txnVerbPut && verb != txnVerbDel {
			return malformed("unknown verb %d", verb)
		}
		kl := int(binary.LittleEndian.Uint32(arg[off+1:]))
		off += 5
		if kl < 0 || off+kl+4 > len(arg) {
			return malformed("truncated write %d key", i)
		}
		kb := arg[off : off+kl]
		off += kl
		vl := int(binary.LittleEndian.Uint32(arg[off:]))
		off += 4
		if vl < 0 || off+vl > len(arg) {
			return malformed("truncated write %d value", i)
		}
		writes = append(writes, txnWrite{verb: verb, kb: kb, vb: arg[off : off+vl]})
		off += vl
	}
	return id, commit, writes, nil
}

func txnStatusErr(status byte) error {
	switch status {
	case txnStatusOK:
		return nil
	case txnStatusConflict:
		return ErrTxnConflict
	case txnStatusLost:
		return ErrTxnPartial
	case txnStatusMalformed:
		return ErrMalformedFrame
	}
	return fmt.Errorf("hcl: unknown txn status %d", status)
}

// ---------------------------------------------------------------------------
// Server-side verbs

// bindTxn registers a container's txn.prepare / txn.decide verbs over its
// txnState. partOf maps the serving node to its (single) partition —
// vshard-routed containers never bind these (Txn on them is rejected
// client-side with ErrResharding).
func bindTxn(rt *Runtime, fnPrepare, fnDecide string, st *txnState, partOf func(node int) (int, bool)) {
	e := rt.engine
	cm := rt.model
	count := func(kind metrics.Kind, node int, v float64) {
		if col := e.Collector(); col != nil {
			col.Add(kind, node, 0, v)
		}
	}

	e.Bind(fnPrepare, func(node int, arg []byte) ([]byte, int64) {
		p, ok := partOf(node)
		if !ok || len(arg) < 1 {
			return []byte{txnStatusMalformed}, cm.LocalOpNS
		}
		tp := &st.parts[p]
		switch arg[0] {
		case txnSubRead:
			kb := arg[1:]
			if st.dead != nil && st.dead(p) {
				return []byte{txnStatusConflict}, cm.LocalOpNS
			}
			// Version and value are read under the partition's txn lock so
			// the pair is consistent: a racing mutation bumps the version
			// only after its value is in place.
			tp.mu.Lock()
			ver := tp.version(kb)
			vb, ok, err := st.read(p, kb)
			tp.mu.Unlock()
			if err != nil {
				return []byte{txnStatusMalformed}, cm.LocalOpNS
			}
			return encodeTxnReadResp(ver, ok, vb), cm.LocalOpNS + cm.MemTime(len(vb))
		case txnSubPrepare:
			id, reads, err := decodeTxnPrepare(arg)
			if err != nil || id == 0 {
				return []byte{txnStatusMalformed}, cm.LocalOpNS
			}
			if st.dead != nil && st.dead(p) {
				count(metrics.TxnConflicts, node, 1)
				return []byte{txnStatusConflict}, cm.LocalOpNS
			}
			tp.mu.Lock()
			if tp.owner != 0 && tp.owner != id {
				tp.mu.Unlock()
				count(metrics.TxnConflicts, node, 1)
				return []byte{txnStatusConflict}, cm.LocalOpNS
			}
			for _, rd := range reads {
				if tp.version(rd.kb) != rd.ver {
					tp.mu.Unlock()
					count(metrics.TxnConflicts, node, 1)
					return []byte{txnStatusConflict}, cm.LocalOpNS
				}
			}
			tp.owner = id
			tp.mu.Unlock()
			return []byte{txnStatusOK}, cm.LocalOpNS * int64(1+len(reads))
		}
		return []byte{txnStatusMalformed}, cm.LocalOpNS
	})

	e.Bind(fnDecide, func(node int, arg []byte) ([]byte, int64) {
		p, ok := partOf(node)
		if !ok {
			return []byte{txnStatusMalformed}, cm.LocalOpNS
		}
		id, commit, writes, err := decodeTxnDecide(arg)
		if err != nil || id == 0 {
			return []byte{txnStatusMalformed}, cm.LocalOpNS
		}
		tp := &st.parts[p]
		tp.mu.Lock()
		if tp.done[id] {
			// Idempotent retry of a decide whose response was lost.
			tp.mu.Unlock()
			return []byte{txnStatusOK}, cm.LocalOpNS
		}
		if !commit {
			if tp.owner == id {
				tp.owner = 0
			}
			tp.mu.Unlock()
			count(metrics.TxnAborts, node, 1)
			return []byte{txnStatusOK}, cm.LocalOpNS
		}
		if tp.owner != id || (st.dead != nil && st.dead(p)) {
			// Fenced between prepare and decide (crash/repair cleared the
			// owner slot, or the partition is dead): the writes cannot be
			// applied here and the transaction's outcome is torn.
			tp.mu.Unlock()
			return []byte{txnStatusLost}, cm.LocalOpNS
		}
		// Keep the owner slot through the applies — no other transaction
		// may prepare this partition until our writes are in place — but
		// drop tp.mu: the applies take the replication lock and then tp.mu
		// for their version bumps, and holding tp.mu here would invert
		// that order.
		tp.mu.Unlock()

		var cost int64
		var applyErr error
		for _, w := range writes {
			c, err := st.applyWrite(p, w.verb, w.kb, w.vb)
			cost += c
			if err != nil {
				applyErr = err
				break
			}
		}

		tp.mu.Lock()
		if tp.owner == id {
			tp.owner = 0
		}
		if applyErr == nil {
			tp.markDone(id)
		}
		tp.mu.Unlock()
		if applyErr != nil {
			return []byte{txnStatusLost}, cm.LocalOpNS + cost
		}
		count(metrics.TxnCommits, node, 1)
		return []byte{txnStatusOK}, cm.LocalOpNS*int64(1+len(writes)) + cost
	})
}

// ---------------------------------------------------------------------------
// Client-side coordinator

// txnHooks is the non-generic view of one transactional container the
// coordinator needs; containers hand it out via their txn accessor.
type txnHooks struct {
	rt        *Runtime
	name      string
	servers   []int
	fnPrepare string
	fnDecide  string
	route     func(kb []byte) int
}

type txnRead struct {
	kb  []byte
	ver uint64
}

type txnWrite struct {
	verb byte
	kb   []byte
	vb   []byte
}

type txnEntryKey struct {
	h  *txnHooks
	kb string
}

type txnCached struct {
	ver uint64
	ok  bool
	vb  []byte
}

// Tx is one transaction attempt: a version-stamped read set, a buffered
// write set, and read-your-writes semantics inside the body. Obtain one
// through Txn; a Tx is single-goroutine and single-use.
type Tx struct {
	rt     *Runtime
	r      *cluster.Rank
	id     uint64
	reads  map[txnEntryKey]txnCached
	writes map[txnEntryKey]txnWrite
	order  []txnEntryKey // write ordering, deterministic replay
}

func newTx(r *cluster.Rank) *Tx {
	return &Tx{
		r:      r,
		id:     txnIDs.Add(1),
		reads:  make(map[txnEntryKey]txnCached),
		writes: make(map[txnEntryKey]txnWrite),
	}
}

// txnGet performs the optimistic versioned read for an encoded key,
// consulting the write buffer (read-your-writes) and the read cache
// (repeatable reads) first.
func (tx *Tx) txnGet(h *txnHooks, kb []byte) (vb []byte, ok bool, err error) {
	key := txnEntryKey{h, string(kb)}
	if w, hit := tx.writes[key]; hit {
		if w.verb == txnVerbDel {
			return nil, false, nil
		}
		return w.vb, true, nil
	}
	if c, hit := tx.reads[key]; hit {
		return c.vb, c.ok, nil
	}
	tx.rt = h.rt
	p := h.route(kb)
	resp, err := h.rt.engine.Invoke(tx.r, h.servers[p], h.fnPrepare, encodeTxnRead(kb))
	if err != nil {
		return nil, false, err
	}
	ver, ok, vb, err := decodeTxnReadResp(resp)
	if err != nil {
		return nil, false, err
	}
	tx.reads[key] = txnCached{ver: ver, ok: ok, vb: vb}
	return vb, ok, nil
}

// txnPut buffers a write (put when vb != nil, delete otherwise).
func (tx *Tx) txnPut(h *txnHooks, kb, vb []byte) {
	tx.rt = h.rt
	key := txnEntryKey{h, string(kb)}
	verb := txnVerbPut
	if vb == nil {
		verb = txnVerbDel
	}
	if _, hit := tx.writes[key]; !hit {
		tx.order = append(tx.order, key)
	}
	tx.writes[key] = txnWrite{verb: verb, kb: kb, vb: vb}
}

// participant is one (container, partition) the transaction touches.
type participant struct {
	h      *txnHooks
	p      int
	node   int
	reads  []txnRead
	writes []txnWrite
}

// participants groups the read and write sets by (container, partition)
// and sorts them into the global (node, container, partition) prepare
// order that keeps conflicting transactions deadlock-free.
func (tx *Tx) participants() []*participant {
	idx := make(map[*txnHooks]map[int]*participant)
	get := func(h *txnHooks, p int) *participant {
		m := idx[h]
		if m == nil {
			m = make(map[int]*participant)
			idx[h] = m
		}
		pt := m[p]
		if pt == nil {
			pt = &participant{h: h, p: p, node: h.servers[p]}
			m[p] = pt
		}
		return pt
	}
	for key, c := range tx.reads {
		kb := []byte(key.kb)
		pt := get(key.h, key.h.route(kb))
		pt.reads = append(pt.reads, txnRead{kb: kb, ver: c.ver})
	}
	for _, key := range tx.order {
		w := tx.writes[key]
		pt := get(key.h, key.h.route(w.kb))
		pt.writes = append(pt.writes, w)
	}
	var out []*participant
	for _, m := range idx {
		for _, pt := range m {
			// Deterministic read order inside a participant (map iteration
			// above is random): sort by key bytes.
			sort.Slice(pt.reads, func(i, j int) bool {
				return string(pt.reads[i].kb) < string(pt.reads[j].kb)
			})
			out = append(out, pt)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if a.h.name != b.h.name {
			return a.h.name < b.h.name
		}
		return a.p < b.p
	})
	return out
}

// commit runs the two-phase protocol. A prepare rejection aborts every
// prepared participant and reports ErrTxnConflict (nothing applied). A
// failure after the commit point reports ErrTxnPartial: the remaining
// participants are still driven so the tear is as small as the fault
// allows, but the overall outcome is unknown.
func (tx *Tx) commit() error {
	parts := tx.participants()
	if len(parts) == 0 {
		return nil
	}
	for i, pt := range parts {
		resp, err := pt.h.rt.engine.Invoke(tx.r, pt.node, pt.h.fnPrepare, encodeTxnPrepare(tx.id, pt.reads))
		var st byte = txnStatusConflict
		if err == nil && len(resp) == 1 {
			st = resp[0]
		}
		if err != nil || st != txnStatusOK {
			// Abort everything prepared so far — including this
			// participant, whose prepare may have landed even though the
			// response was lost.
			tx.abort(parts[:i+1])
			if err != nil {
				return err
			}
			if serr := txnStatusErr(st); !errors.Is(serr, ErrTxnConflict) {
				return fmt.Errorf("hcl: txn prepare at %s/%d: %w", pt.h.name, pt.p, serr)
			}
			return fmt.Errorf("hcl: txn prepare at %s/%d: %w", pt.h.name, pt.p, ErrTxnConflict)
		}
	}
	committed := 0
	var firstErr error
	for i, pt := range parts {
		resp, err := pt.h.rt.engine.Invoke(tx.r, pt.node, pt.h.fnDecide, encodeTxnDecide(tx.id, true, pt.writes))
		if err == nil && len(resp) == 1 && resp[0] == txnStatusOK {
			committed++
			continue
		}
		lost := err == nil && len(resp) == 1 && resp[0] == txnStatusLost
		if committed == 0 && lost {
			// The participant definitely did not apply (fenced between
			// prepare and decide) and no prior participant has either:
			// nothing is applied anywhere, so release the rest and retry.
			tx.abort(parts[i+1:])
			return fmt.Errorf("hcl: txn fenced at %s/%d before commit: %w", pt.h.name, pt.p, ErrTxnConflict)
		}
		if firstErr == nil {
			if err == nil {
				err = txnStatusErr(resp[len(resp)-1])
			}
			firstErr = fmt.Errorf("hcl: txn commit at %s/%d: %w (%v)", pt.h.name, pt.p, ErrTxnPartial, err)
		}
	}
	return firstErr
}

// abort best-effort releases the given participants' owner slots.
func (tx *Tx) abort(parts []*participant) {
	for _, pt := range parts {
		_, _ = pt.h.rt.engine.Invoke(tx.r, pt.node, pt.h.fnDecide, encodeTxnDecide(tx.id, false, nil))
	}
}

// Txn runs fn as a transaction on rank r: optimistic reads, buffered
// writes, two-phase commit, with automatic retry on ErrTxnConflict up to
// a bounded attempt budget. An error returned by fn aborts the attempt
// and is returned verbatim (no retry). On exhausted retries the returned
// error wraps ErrTxnConflict; nothing was applied.
func Txn(r *cluster.Rank, fn func(tx *Tx) error) error {
	var lastErr error
	for attempt := 0; attempt < txnMaxAttempts; attempt++ {
		if attempt > 0 {
			// Contention backoff: an optimistic retry that re-reads
			// immediately tends to collide with the same winners again.
			// Exponential with per-transaction jitter, capped small — the
			// conflict window is a couple of RPCs wide.
			shift := attempt
			if shift > 6 {
				shift = 6
			}
			step := time.Duration(1<<uint(shift)) * 10 * time.Microsecond
			jitter := time.Duration(txnIDs.Add(1)%16) * time.Microsecond
			time.Sleep(step + jitter)
		}
		tx := newTx(r)
		if err := fn(tx); err != nil {
			if errors.Is(err, ErrTxnConflict) {
				// A stale read surfaced inside the body (e.g. a read-time
				// conflict); retry like a prepare conflict.
				lastErr = err
				continue
			}
			return err
		}
		err := tx.commit()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrTxnConflict) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("hcl: txn retries exhausted: %w", lastErr)
}

// TxnGet reads m[k] inside the transaction: buffered writes win, repeated
// reads are stable, and the observed version joins the read set that
// prepare validates.
func TxnGet[K comparable, V any](tx *Tx, m *UnorderedMap[K, V], k K) (V, bool, error) {
	var zero V
	h, err := m.txnHooks()
	if err != nil {
		return zero, false, err
	}
	kb, err := m.kbox.Encode(k)
	if err != nil {
		return zero, false, err
	}
	vb, ok, err := tx.txnGet(h, kb)
	if err != nil || !ok {
		return zero, false, err
	}
	v, err := m.vbox.Decode(vb)
	if err != nil {
		return zero, false, err
	}
	return v, true, nil
}

// TxnPut buffers m[k] = v; it is applied atomically with the rest of the
// transaction at commit.
func TxnPut[K comparable, V any](tx *Tx, m *UnorderedMap[K, V], k K, v V) error {
	h, err := m.txnHooks()
	if err != nil {
		return err
	}
	kb, err := m.kbox.Encode(k)
	if err != nil {
		return err
	}
	vb, err := m.vbox.Encode(v)
	if err != nil {
		return err
	}
	tx.txnPut(h, kb, vb)
	return nil
}

// TxnDelete buffers the removal of m[k].
func TxnDelete[K comparable, V any](tx *Tx, m *UnorderedMap[K, V], k K) error {
	h, err := m.txnHooks()
	if err != nil {
		return err
	}
	kb, err := m.kbox.Encode(k)
	if err != nil {
		return err
	}
	tx.txnPut(h, kb, nil)
	return nil
}
