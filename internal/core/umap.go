package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hcl/internal/cluster"
	"hcl/internal/containers"
	"hcl/internal/databox"
	"hcl/internal/dataplane"
	"hcl/internal/fabric"
	"hcl/internal/reshard"
	"hcl/internal/ror"
)

// UnorderedMap is HCL::unordered_map — a distributed hash map whose
// buckets are partitioned block-wise over server nodes (paper Section
// III-D1). Each partition is a node-local concurrent cuckoo hash; clients
// reach remote partitions with exactly one RPC invocation, and co-located
// partitions directly through shared memory (the hybrid access model).
type UnorderedMap[K comparable, V any] struct {
	rt      *Runtime
	fns     keyedVerbs
	name    string
	opt     options
	servers []int
	parts   []*containers.CuckooMap[K, V]
	byNode  map[int]int // node id -> partition index
	kbox    *databox.Box[K]
	vbox    *databox.Box[V]
	journal []*journal
	merge   func(old, incoming V) V
	repl    *replGroup[K, V]
	dp      *dataplane.Plane
	rg      *reshard.Coordinator // vshard routing + live migration; nil without WithVirtualNodes
	tx      *txnState            // per-partition txn versions/owners; nil on vshard maps
	txh     *txnHooks
}

// NewUnorderedMap constructs (collectively, without coordination) a
// distributed unordered map named name. All processes in the world
// observe the same partitioning because the level-one hash is stable.
func NewUnorderedMap[K comparable, V any](rt *Runtime, name string, opts ...Option) (*UnorderedMap[K, V], error) {
	o := buildOptions(opts)
	if name == "" {
		name = rt.autoName("unordered_map")
	}
	servers := o.servers
	if servers == nil {
		servers = allNodes(rt)
	}
	m := &UnorderedMap[K, V]{
		rt:      rt,
		fns:     newKeyedVerbs("umap", name),
		name:    name,
		opt:     o,
		servers: servers,
		parts:   make([]*containers.CuckooMap[K, V], len(servers)),
		byNode:  make(map[int]int, len(servers)),
		kbox:    databox.New[K](databox.WithCodec(o.codec)),
		vbox:    databox.New[V](databox.WithCodec(o.codec)),
	}
	for i, n := range servers {
		m.parts[i] = containers.NewCuckooMapSize[K, V](o.initialCap)
		m.byNode[n] = i
	}
	rg, err := newCoordinator(rt, "umap", name, servers, o)
	if err != nil {
		return nil, err
	}
	m.rg = rg
	if err := m.openJournals(); err != nil {
		return nil, err
	}
	m.repl = newReplGroup(rt, name, m.fns.prefix, servers, m.byNode,
		func(p int) replPart[K, V] { return m.parts[p] },
		m.kbox, m.vbox, false, o)
	if m.repl != nil {
		m.repl.mergeInto = func(cp *containers.CuckooMap[K, V], k K, v V) bool {
			fn := m.merge
			return cp.Upsert(k, func(old V, exists bool) V {
				if exists && fn != nil {
					return fn(old, v)
				}
				return v
			})
		}
		m.repl.onRestore = m.rewriteJournal
	}
	m.dp = newPlane(rt, "umap", name, servers, o, true)
	m.initTxn()
	m.bind()
	if m.dp != nil {
		// Client-side cache check before aggregation: an aggregated find
		// whose key holds an unexpired lease never joins a batch bucket.
		rt.engine.SetReadThrough(m.fns.find, func(arg []byte) ([]byte, bool) {
			p := m.route(arg)
			vb, ok, hit := m.dp.CacheGet(p, arg, 0)
			if !hit {
				return nil, false
			}
			if !ok {
				return []byte{0}, true
			}
			return append([]byte{1}, vb...), true
		})
	}
	return m, nil
}

func allNodes(rt *Runtime) []int {
	n := rt.world.NumNodes()
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Name returns the container's global name.
func (m *UnorderedMap[K, V]) Name() string { return m.name }

// Partitions reports the number of partitions.
func (m *UnorderedMap[K, V]) Partitions() int { return len(m.servers) }

// PartitionOf reports the partition currently serving key k. Under
// virtual nodes this is a live routing-table lookup, so the answer can
// change across a reshard maneuver; benches use it to attribute per-op
// load to partitions.
func (m *UnorderedMap[K, V]) PartitionOf(k K) (int, error) {
	p, _, err := m.partitionOf(k)
	return p, err
}

// keyBuf sizes the stack array hot paths encode a key into: keys that
// fit (most do) are routed and shipped without a heap allocation.
const keyBuf = 64

// partitionOf computes the level-one (stable) hash and the owning
// partition of a key. The encoded key is returned for reuse on the wire.
func (m *UnorderedMap[K, V]) partitionOf(k K) (int, []byte, error) {
	return m.partitionOnto(nil, k)
}

// partitionOnto is partitionOf encoding the key onto buf[:0].
func (m *UnorderedMap[K, V]) partitionOnto(buf []byte, k K) (int, []byte, error) {
	kb, err := m.kbox.AppendEncode(buf[:0], k)
	if err != nil {
		return 0, nil, fmt.Errorf("hcl: %s: encode key: %w", m.name, err)
	}
	return m.route(kb), kb, nil
}

// route resolves the encoded key's owning partition: through the vshard
// table when virtual nodes are on (a lock-free snapshot that a concurrent
// flip may stale by one version — the serving side re-resolves under the
// vshard lock, so a stale route costs a hop, never a wrong answer), or
// the paper's static modulus otherwise.
func (m *UnorderedMap[K, V]) route(kb []byte) int {
	if m.rg != nil {
		return m.rg.Partition(StableHash64(kb))
	}
	return int(StableHash64(kb) % uint64(len(m.servers)))
}

// bind registers the container's server-side handlers in the invocation
// registry (the paper's bind step). The hot verbs are framed: each builds
// its whole response, status byte included, in one buffer.
func (m *UnorderedMap[K, V]) bind() {
	e := m.rt.engine
	cm := m.rt.model
	ror.BindFramed(e, m.fns.insert, func(node int, arg []byte) ([]byte, int64) {
		kb, vb, err := databox.DecodePair(arg)
		if err != nil {
			panic(err)
		}
		k, err := m.kbox.Decode(kb)
		if err != nil {
			panic(err)
		}
		v, err := m.vbox.Decode(vb)
		if err != nil {
			panic(err)
		}
		// Table I: insert = F + L + W (F billed by the fabric).
		cost := cm.LocalOpNS + cm.MemTime(len(arg))
		if m.rg != nil {
			// Vshard routing: resolve by key under the vshard lock (the
			// client's route may be one flip stale), dual-writing while
			// the key's vshard is mid-migration.
			isNew := m.rg.Mutate(StableHash64(kb), func(p int) bool {
				return m.dp.WrapMutation(p, kb, dataplane.PubValue, vb, func() bool {
					return m.parts[p].Insert(k, v)
				})
			})
			return boolReply(isNew), cost
		}
		p := m.byNode[node]
		put := func() bool {
			isNew := m.parts[p].Insert(k, v)
			m.appendJournalPut(p, arg)
			return isNew
		}
		if m.repl == nil {
			return boolReply(m.applyAt(p, kb, dataplane.PubValue, vb, put)), cost
		}
		isNew, fcost, rerr := m.repl.mutate(p, replPut, kb, vb, func() bool {
			return m.applyAt(p, kb, dataplane.PubValue, vb, put)
		})
		return mutReply(isNew, rerr), cost + fcost
	})
	ror.BindFramed(e, m.fns.merge, func(node int, arg []byte) ([]byte, int64) {
		kb, vb, err := databox.DecodePair(arg)
		if err != nil {
			panic(err)
		}
		k, err := m.kbox.Decode(kb)
		if err != nil {
			panic(err)
		}
		v, err := m.vbox.Decode(vb)
		if err != nil {
			panic(err)
		}
		// One server-side read-modify-write: F + L + R + W.
		cost := 2*cm.LocalOpNS + cm.MemTime(len(arg))
		if m.rg != nil {
			isNew := m.rg.Mutate(StableHash64(kb), func(p int) bool {
				return m.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
					return m.mergeLocal(p, k, v)
				})
			})
			return boolReply(isNew), cost
		}
		p := m.byNode[node]
		// PubClear, not PubValue: the combined value lives only in the
		// partition, never on the wire, so the mirror slot is invalidated
		// rather than re-encoded on the mutation path.
		merge := func() bool {
			isNew := m.mergeLocal(p, k, v)
			m.journalMerged(p, kb, k)
			return isNew
		}
		if m.repl == nil {
			return boolReply(m.applyAt(p, kb, dataplane.PubClear, nil, merge)), cost
		}
		isNew, fcost, rerr := m.repl.mutate(p, replMerge, kb, vb, func() bool {
			return m.applyAt(p, kb, dataplane.PubClear, nil, merge)
		})
		return mutReply(isNew, rerr), cost + fcost
	})
	ror.BindFramed(e, m.fns.find, func(node int, arg []byte) ([]byte, int64) {
		k, err := m.kbox.Decode(arg)
		if err != nil {
			panic(err)
		}
		var out []byte
		var ok bool
		// read builds the [status][found][value] reply at partition p.
		// Serving a find is also granting a read lease: with a dataplane
		// the read and the grant happen atomically under the key's stripe
		// lock, and the lease records the value bytes of the reply.
		read := func(p int) {
			_, ok = m.dp.GrantRead(p, arg, func() ([]byte, bool) {
				v, found := m.parts[p].Find(k)
				if !found {
					return nil, false
				}
				if out, err = foundReply(m.vbox, v); err != nil {
					panic(err)
				}
				return out[2:], true
			})
		}
		if m.rg != nil {
			// Resolve and read under the vshard read-lock: a read that
			// found the old owner completes before a concurrent flip can
			// drain the key from under it.
			m.rg.Read(StableHash64(arg), read)
		} else {
			p := m.byNode[node]
			if m.repl != nil && m.repl.isDead(p) {
				// Crashed, awaiting repair: the wiped primary must not serve
				// reads. The marker sends the client to a replica.
				return deadReply(), cm.LocalOpNS
			}
			read(p)
		}
		if !ok {
			return replyFalse, cm.LocalOpNS
		}
		// Table I: find = F + L + R.
		return out, cm.LocalOpNS + cm.MemTime(len(out)-2)
	})
	ror.BindFramed(e, m.fns.erase, func(node int, arg []byte) ([]byte, int64) {
		k, err := m.kbox.Decode(arg)
		if err != nil {
			panic(err)
		}
		if m.rg != nil {
			ok := m.rg.Mutate(StableHash64(arg), func(p int) bool {
				return m.dp.WrapMutation(p, arg, dataplane.PubClear, nil, func() bool {
					return m.parts[p].Delete(k)
				})
			})
			return boolReply(ok), cm.LocalOpNS
		}
		p := m.byNode[node]
		del := func() bool {
			ok := m.parts[p].Delete(k)
			m.appendJournalDel(p, arg)
			return ok
		}
		if m.repl == nil {
			return boolReply(m.applyAt(p, arg, dataplane.PubClear, nil, del)), cm.LocalOpNS
		}
		ok, fcost, rerr := m.repl.mutate(p, replDel, arg, nil, func() bool {
			return m.applyAt(p, arg, dataplane.PubClear, nil, del)
		})
		return mutReply(ok, rerr), cm.LocalOpNS + fcost
	})
	ror.BindFramed(e, m.fns.resize, func(node int, arg []byte) ([]byte, int64) {
		p := m.byNode[node]
		if len(arg) == 16 {
			// Vshard-routed containers address the partition explicitly
			// (a node may host several partitions).
			p = int(binary.LittleEndian.Uint64(arg[8:]))
		}
		newSize := int(binary.LittleEndian.Uint64(arg[:8]))
		n := m.parts[p].Len()
		m.parts[p].Reserve(newSize)
		// Table I: resize = F + N(R+W).
		return replyTrue, int64(n) * 2 * cm.LocalOpNS
	})
	e.Bind(m.fns.size, func(node int, arg []byte) ([]byte, int64) {
		if m.rg != nil {
			// Sum every partition this node hosts (vshard placements may
			// put several partitions on one node, e.g. the shm world).
			total := 0
			for p, n := range m.servers {
				if n == node {
					total += m.parts[p].Len()
				}
			}
			var out [8]byte
			binary.LittleEndian.PutUint64(out[:], uint64(total))
			return out[:], cm.LocalOpNS
		}
		p := m.byNode[node]
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], uint64(m.parts[p].Len()))
		return out[:], cm.LocalOpNS
	})
}

// initTxn wires this map's transaction plane: per-partition version/owner
// state plus the prepare/decide verbs. Vshard-routed maps skip it —
// ownership there moves under live resharding, which would invalidate
// prepared owner slots mid-transaction; Txn on such maps reports
// ErrResharding at the client.
func (m *UnorderedMap[K, V]) initTxn() {
	if m.rg != nil {
		return
	}
	st := newTxnState(len(m.servers))
	st.read = func(p int, kb []byte) ([]byte, bool, error) {
		k, err := m.kbox.Decode(kb)
		if err != nil {
			return nil, false, err
		}
		v, ok := m.parts[p].Find(k)
		if !ok {
			return nil, false, nil
		}
		vb, err := m.vbox.Encode(v)
		if err != nil {
			return nil, false, err
		}
		return vb, true, nil
	}
	st.applyWrite = m.txnApplyWrite
	if m.repl != nil {
		st.dead = m.repl.isDead
	}
	m.tx = st
	m.txh = &txnHooks{
		rt:        m.rt,
		name:      m.name,
		servers:   m.servers,
		fnPrepare: m.fns.prefix + "txn.prepare",
		fnDecide:  m.fns.prefix + "txn.decide",
		route:     m.route,
	}
	bindTxn(m.rt, m.txh.fnPrepare, m.txh.fnDecide, st, func(node int) (int, bool) {
		p, ok := m.byNode[node]
		return p, ok
	})
}

// txReshape rebuilds the per-partition transaction state after a
// collective repartition (AddPartition/RemovePartition). Those are
// phase-boundary operations — every rank is quiescent by contract — so
// the slots can be replaced wholesale. Versions do not carry across a
// repartition (keys change homes), so every new partition starts floored
// above anything previously handed out: a read taken before the reshape
// can never validate after it.
func (m *UnorderedMap[K, V]) txReshape() {
	if m.tx == nil {
		return
	}
	var hi uint64
	for i := range m.tx.parts {
		tp := &m.tx.parts[i]
		tp.mu.Lock()
		if tp.seq > hi {
			hi = tp.seq
		}
		if tp.floor > hi {
			hi = tp.floor
		}
		tp.mu.Unlock()
	}
	parts := make([]txnPart, len(m.parts))
	for i := range parts {
		parts[i].seq = hi + 1
		parts[i].floor = hi + 1
		parts[i].epoch = hi + 1
	}
	m.tx.parts = parts
	m.txh.servers = m.servers
}

// txnHooks hands the coordinator this map's non-generic transaction view.
func (m *UnorderedMap[K, V]) txnHooks() (*txnHooks, error) {
	if m.txh == nil {
		return nil, fmt.Errorf("hcl: %s: transactions unsupported on vshard-routed containers: %w", m.name, ErrResharding)
	}
	return m.txh, nil
}

// applyAt runs a non-vshard mutation's primary-side apply inside the
// dataplane's lease-revoke/mirror-publish section (apply alone without a
// plane), then bumps the key's txn version. Every non-vshard mutation
// path applies through it so transactional reads see a version change
// for any overlapping write, whatever its origin.
func (m *UnorderedMap[K, V]) applyAt(p int, kb []byte, act dataplane.PubAction, vb []byte, apply func() bool) bool {
	res := m.dp.WrapMutation(p, kb, act, vb, apply)
	m.tx.bump(p, kb)
	return res
}

// txnApplyWrite applies one decided transactional write through the same
// journal/replication/dataplane path a direct mutation takes, reporting
// the replication forward cost.
func (m *UnorderedMap[K, V]) txnApplyWrite(p int, verb byte, kb, vb []byte) (int64, error) {
	k, err := m.kbox.Decode(kb)
	if err != nil {
		return 0, err
	}
	switch verb {
	case txnVerbPut:
		v, err := m.vbox.Decode(vb)
		if err != nil {
			return 0, err
		}
		apply := func() bool {
			return m.applyAt(p, kb, dataplane.PubValue, vb, func() bool {
				isNew := m.parts[p].Insert(k, v)
				m.appendJournalPut(p, databox.EncodePair(kb, vb))
				return isNew
			})
		}
		if m.repl != nil {
			_, fcost, rerr := m.repl.mutate(p, replPut, kb, vb, apply)
			return fcost, rerr
		}
		apply()
		return 0, nil
	case txnVerbDel:
		apply := func() bool {
			return m.applyAt(p, kb, dataplane.PubClear, nil, func() bool {
				ok := m.parts[p].Delete(k)
				m.appendJournalDel(p, kb)
				return ok
			})
		}
		if m.repl != nil {
			_, fcost, rerr := m.repl.mutate(p, replDel, kb, nil, apply)
			return fcost, rerr
		}
		apply()
		return 0, nil
	}
	return 0, fmt.Errorf("%w: txn write verb %d", ErrMalformedFrame, verb)
}

// mutateLocal runs the hybrid-path form of a replicated mutation: the
// co-located writer still walks the full forward-first protocol (it
// cannot bypass the quorum), applying through applyAt with act, then
// bills the forward time to its own clock. rerr, when set, wraps
// ErrDegraded: nothing was applied.
func (m *UnorderedMap[K, V]) mutateLocal(r *cluster.Rank, p int, verb byte, kb, vb []byte, op string, act dataplane.PubAction, apply func() bool) (bool, error) {
	pub := vb
	if act == dataplane.PubClear {
		pub = nil
	}
	res, fcost, rerr := m.repl.mutate(p, verb, kb, vb, func() bool {
		return m.applyAt(p, kb, act, pub, apply)
	})
	m.rt.localCharge(r, len(kb)+len(vb), 2, "umap", m.name, op)
	r.Clock().Advance(fcost)
	return res, rerr
}

// CrashNode simulates process death of node for fault-injection drivers:
// its primary partition and any replica copies it holds are wiped.
func (m *UnorderedMap[K, V]) CrashNode(node int) {
	if m.repl != nil {
		m.repl.CrashNode(node)
		m.fence(node)
		if p, ok := m.byNode[node]; ok {
			m.tx.Fence(p)
		}
		return
	}
	if m.rg != nil {
		// Vshard placement may host several partitions on one node; wipe
		// and fence each of them.
		for p, n := range m.servers {
			if n == node {
				wipePart[K, V](m.parts[p])
				if m.dp != nil {
					m.dp.Fence(p)
				}
			}
		}
		return
	}
	if p, ok := m.byNode[node]; ok {
		wipePart[K, V](m.parts[p])
		m.tx.Fence(p)
	}
	m.fence(node)
}

// Resharder returns the live-resharding driver for this map. It requires
// WithVirtualNodes (the vshard table is what makes ownership movable);
// otherwise the error wraps ErrResharding.
func (m *UnorderedMap[K, V]) Resharder() (*Resharder, error) {
	if m.rg == nil {
		return nil, fmt.Errorf("hcl: %s: built without virtual nodes: %w", m.name, ErrResharding)
	}
	return newResharder(m.rg, m.mover()), nil
}

// mover adapts this map's partitions to the coordinator's migration
// hooks. All hooks run under the moving vshard's write lock, never
// concurrently, so the shared key buffer is safe.
func (m *UnorderedMap[K, V]) mover() reshard.Mover {
	var buf []K
	inShard := func(v int, k K) bool {
		kb, err := m.kbox.Encode(k)
		if err != nil {
			return false
		}
		return m.rg.VShardOf(StableHash64(kb)) == v
	}
	return reshard.Mover{
		Collect: func(v, from int) int {
			buf = buf[:0]
			m.parts[from].Range(func(k K, _ V) bool {
				if inShard(v, k) {
					buf = append(buf, k)
				}
				return true
			})
			return len(buf)
		},
		Copy: func(i, j, from, to int) int {
			n := 0
			for _, k := range buf[i:j] {
				// Re-read the current value: a key erased since Collect
				// must not be resurrected, and a merged one must carry
				// its combined value.
				if val, ok := m.parts[from].Find(k); ok {
					m.parts[to].Insert(k, val)
					n++
				}
			}
			return n
		},
		Drain: func(v, from int) int {
			// Fresh scan, not the Collect buffer: keys inserted during
			// the migration were dual-written to the target and must not
			// survive in the old owner.
			var doomed []K
			m.parts[from].Range(func(k K, _ V) bool {
				if inShard(v, k) {
					doomed = append(doomed, k)
				}
				return true
			})
			for _, k := range doomed {
				m.parts[from].Delete(k)
			}
			return len(doomed)
		},
		Fence: func(p int) {
			if m.dp != nil {
				m.dp.Fence(p)
			}
		},
	}
}

// fence bumps the dataplane lease epoch of node's partition and wipes its
// mirror, so no pre-crash lease or slot can serve another read.
func (m *UnorderedMap[K, V]) fence(node int) {
	if m.dp == nil {
		return
	}
	if p, ok := m.byNode[node]; ok {
		m.dp.Fence(p)
	}
}

// RepairNode anti-entropy-repairs node's partition from a live replica
// (and refreshes the replica copies node holds) before it rejoins; call
// it while the node is still fenced off from clients. A nil error means
// the node may serve again. No-op without replication.
func (m *UnorderedMap[K, V]) RepairNode(node int) error {
	if m.repl == nil {
		return nil
	}
	err := m.repl.RepairNode(node)
	// A second epoch bump on rejoin: leases granted between crash and
	// repair (e.g. by a failover replica, were that ever added) can never
	// match the post-repair epoch — and likewise any transaction prepared
	// or read against the pre-repair partition must fence into an abort.
	m.fence(node)
	if p, ok := m.byNode[node]; ok {
		m.tx.Fence(p)
	}
	return err
}

// FlushReplication drains queued asynchronous forwards (ReplAsync mode).
func (m *UnorderedMap[K, V]) FlushReplication() {
	if m.repl != nil {
		m.repl.Flush()
	}
}

// SetMerge installs the combiner used by Merge. Call it (identically on
// every process) before issuing Merge operations; a nil combiner makes
// Merge behave like Insert.
func (m *UnorderedMap[K, V]) SetMerge(fn func(old, incoming V) V) { m.merge = fn }

// mergeLocal applies the combiner atomically on partition p.
func (m *UnorderedMap[K, V]) mergeLocal(p int, k K, v V) bool {
	fn := m.merge
	return m.parts[p].Upsert(k, func(old V, exists bool) V {
		if exists && fn != nil {
			return fn(old, v)
		}
		return v
	})
}

// Merge combines v into the entry under k with the registered combiner,
// atomically at the owning partition — a read-modify-write in a single
// invocation (e.g. histogram increments), which the client-side baseline
// cannot express without extra round trips.
func (m *UnorderedMap[K, V]) Merge(r *cluster.Rank, k K, v V) (bool, error) {
	var kbuf [keyBuf]byte
	p, kb, err := m.partitionOnto(kbuf[:], k)
	if err != nil {
		return false, err
	}
	node := m.servers[p]
	if m.opt.hybrid && node == r.Node() {
		if m.rg != nil {
			isNew := m.rg.Mutate(StableHash64(kb), func(p int) bool {
				return m.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
					return m.mergeLocal(p, k, v)
				})
			})
			m.rt.localCharge(r, len(kb)+payloadSize(m.vbox, v), 3, "umap", m.name, "merge")
			return isNew, nil
		}
		if m.repl != nil {
			vb, err := m.vbox.Encode(v)
			if err != nil {
				return false, err
			}
			return m.mutateLocal(r, p, replMerge, kb, vb, "merge", dataplane.PubClear, func() bool {
				isNew := m.mergeLocal(p, k, v)
				m.journalMerged(p, kb, k)
				return isNew
			})
		}
		isNew := m.applyAt(p, kb, dataplane.PubClear, nil, func() bool {
			n := m.mergeLocal(p, k, v)
			m.journalMerged(p, kb, k)
			return n
		})
		m.rt.localCharge(r, len(kb)+payloadSize(m.vbox, v), 3, "umap", m.name, "merge")
		return isNew, nil
	}
	arg, vb, err := encodePair(m.vbox, kb, v)
	if err != nil {
		return false, err
	}
	if m.repl != nil {
		return m.repl.invokeMutation(r, node, m.fns.merge, arg, replMerge, p, kb, vb)
	}
	resp, err := m.rt.engine.Invoke(r, node, m.fns.merge, arg)
	if err != nil {
		return false, err
	}
	return decodeBool(resp)
}

// MergeAsync is the future-returning form of Merge.
func (m *UnorderedMap[K, V]) MergeAsync(r *cluster.Rank, k K, v V) *Future[bool] {
	var kbuf [keyBuf]byte
	p, kb, err := m.partitionOnto(kbuf[:], k)
	if err != nil {
		return immediateFuture(false, err)
	}
	node := m.servers[p]
	if m.opt.hybrid && node == r.Node() {
		if m.rg != nil {
			isNew := m.rg.Mutate(StableHash64(kb), func(p int) bool {
				return m.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
					return m.mergeLocal(p, k, v)
				})
			})
			m.rt.localCharge(r, len(kb)+payloadSize(m.vbox, v), 3, "umap", m.name, "merge")
			return immediateFuture(isNew, nil)
		}
		if m.repl != nil {
			vb, err := m.vbox.Encode(v)
			if err != nil {
				return immediateFuture(false, err)
			}
			isNew, rerr := m.mutateLocal(r, p, replMerge, kb, vb, "merge", dataplane.PubClear, func() bool {
				n := m.mergeLocal(p, k, v)
				m.journalMerged(p, kb, k)
				return n
			})
			return immediateFuture(isNew, rerr)
		}
		isNew := m.applyAt(p, kb, dataplane.PubClear, nil, func() bool {
			n := m.mergeLocal(p, k, v)
			m.journalMerged(p, kb, k)
			return n
		})
		m.rt.localCharge(r, len(kb)+payloadSize(m.vbox, v), 3, "umap", m.name, "merge")
		return immediateFuture(isNew, nil)
	}
	arg, _, err := encodePair(m.vbox, kb, v)
	if err != nil {
		return immediateFuture(false, err)
	}
	raw := m.rt.engine.InvokeAsync(r, node, m.fns.merge, arg)
	if m.repl != nil {
		return remoteFuture(raw, m.repl.decodeMutResp)
	}
	return remoteFuture(raw, decodeBool)
}

// Insert stores v under k. It returns true when the key was newly
// inserted into its partition.
func (m *UnorderedMap[K, V]) Insert(r *cluster.Rank, k K, v V) (bool, error) {
	var kbuf [keyBuf]byte
	p, kb, err := m.partitionOnto(kbuf[:], k)
	if err != nil {
		return false, err
	}
	node := m.servers[p]
	if m.opt.hybrid && node == r.Node() {
		if m.rg != nil {
			isNew := m.rg.Mutate(StableHash64(kb), func(p int) bool {
				return m.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
					return m.parts[p].Insert(k, v)
				})
			})
			m.rt.localCharge(r, len(kb)+payloadSize(m.vbox, v), 2, "umap", m.name, "insert")
			if isNew {
				m.chargeAlloc(r, node, len(kb)+payloadSize(m.vbox, v))
			}
			return isNew, nil
		}
		if m.repl != nil {
			vb, err := m.vbox.Encode(v)
			if err != nil {
				return false, fmt.Errorf("hcl: %s: encode value: %w", m.name, err)
			}
			isNew, rerr := m.mutateLocal(r, p, replPut, kb, vb, "insert", dataplane.PubValue, func() bool {
				n := m.parts[p].Insert(k, v)
				m.appendJournalPut(p, databox.EncodePair(kb, vb))
				return n
			})
			if rerr == nil && isNew {
				m.chargeAlloc(r, node, len(kb)+len(vb))
			}
			return isNew, rerr
		}
		// Hybrid path: direct shared-memory access, no RPC, no
		// serialization of the value — so the mirror slot is cleared, not
		// published (publishing would force the encode this path avoids).
		isNew := m.applyAt(p, kb, dataplane.PubClear, nil, func() bool {
			return m.parts[p].Insert(k, v)
		})
		m.rt.localCharge(r, len(kb)+payloadSize(m.vbox, v), 2, "umap", m.name, "insert")
		m.appendJournalEncoded(p, kb, v, m.vbox)
		if isNew {
			m.chargeAlloc(r, node, len(kb)+payloadSize(m.vbox, v))
		}
		return isNew, nil
	}
	arg, vb, err := encodePair(m.vbox, kb, v)
	if err != nil {
		return false, fmt.Errorf("hcl: %s: encode value: %w", m.name, err)
	}
	if m.repl != nil {
		isNew, err := m.repl.invokeMutation(r, node, m.fns.insert, arg, replPut, p, kb, vb)
		if err == nil && isNew {
			m.chargeAlloc(r, node, len(kb)+len(vb))
		}
		return isNew, err
	}
	resp, err := m.rt.engine.Invoke(r, node, m.fns.insert, arg)
	if err != nil {
		return false, err
	}
	isNew, err := decodeBool(resp)
	if err == nil && isNew {
		m.chargeAlloc(r, node, len(kb)+len(vb))
	}
	return isNew, err
}

// chargeAlloc records HCL's dynamic, grow-as-you-insert memory behaviour
// (paper Figure 4b) against the partition's node.
func (m *UnorderedMap[K, V]) chargeAlloc(r *cluster.Rank, node, bytes int) {
	// A dynamic structure that cannot allocate would fail its insert;
	// in these experiments HCL never approaches node memory, so the
	// error path only guards against misconfigured tiny-node models.
	_ = m.rt.acct.Alloc(node, int64(bytes), r.Clock().Now())
}

// InsertAsync is the future-returning form of Insert.
func (m *UnorderedMap[K, V]) InsertAsync(r *cluster.Rank, k K, v V) *Future[bool] {
	var kbuf [keyBuf]byte
	p, kb, err := m.partitionOnto(kbuf[:], k)
	if err != nil {
		return immediateFuture(false, err)
	}
	node := m.servers[p]
	if m.opt.hybrid && node == r.Node() {
		if m.rg != nil {
			isNew := m.rg.Mutate(StableHash64(kb), func(p int) bool {
				return m.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
					return m.parts[p].Insert(k, v)
				})
			})
			m.rt.localCharge(r, len(kb)+payloadSize(m.vbox, v), 2, "umap", m.name, "insert")
			return immediateFuture(isNew, nil)
		}
		if m.repl != nil {
			vb, err := m.vbox.Encode(v)
			if err != nil {
				return immediateFuture(false, err)
			}
			isNew, rerr := m.mutateLocal(r, p, replPut, kb, vb, "insert", dataplane.PubValue, func() bool {
				n := m.parts[p].Insert(k, v)
				m.appendJournalPut(p, databox.EncodePair(kb, vb))
				return n
			})
			return immediateFuture(isNew, rerr)
		}
		isNew := m.applyAt(p, kb, dataplane.PubClear, nil, func() bool {
			return m.parts[p].Insert(k, v)
		})
		m.rt.localCharge(r, len(kb)+payloadSize(m.vbox, v), 2, "umap", m.name, "insert")
		m.appendJournalEncoded(p, kb, v, m.vbox)
		return immediateFuture(isNew, nil)
	}
	arg, _, err := encodePair(m.vbox, kb, v)
	if err != nil {
		return immediateFuture(false, err)
	}
	raw := m.rt.engine.InvokeAsync(r, node, m.fns.insert, arg)
	if m.repl != nil {
		return remoteFuture(raw, m.repl.decodeMutResp)
	}
	return remoteFuture(raw, decodeBool)
}

// Find returns the value stored under k.
func (m *UnorderedMap[K, V]) Find(r *cluster.Rank, k K) (V, bool, error) {
	var zero V
	var kbuf [keyBuf]byte
	p, kb, err := m.partitionOnto(kbuf[:], k)
	if err != nil {
		return zero, false, err
	}
	node := m.servers[p]
	// Lease cache: a mutation cannot ack while a lease on k is live, so an
	// unexpired, unfenced lease answers without touching the network.
	if vb, ok, hit := m.dp.CacheGet(p, kb, r.Clock().Now()); hit {
		m.rt.localCharge(r, len(kb), 1, "umap", m.name, "find")
		if !ok {
			return zero, false, nil
		}
		v, derr := m.vbox.Decode(vb)
		if derr != nil {
			return zero, false, derr
		}
		return v, true, nil
	}
	if m.opt.hybrid && node == r.Node() && (m.repl == nil || !m.repl.isDead(p)) {
		var v V
		var ok bool
		if m.rg != nil {
			// Resolve + read under the vshard read-lock, so a concurrent
			// flip's drain cannot remove the key mid-read.
			m.rg.Read(StableHash64(kb), func(p int) { v, ok = m.parts[p].Find(k) })
		} else {
			v, ok = m.parts[p].Find(k)
		}
		sz := len(kb)
		if ok {
			sz += payloadSize(m.vbox, v)
		}
		m.rt.localCharge(r, sz, 2, "umap", m.name, "find")
		return v, ok, nil
	}
	// Per-op route decision: an uncontended read-mostly partition is read
	// with one one-sided fetch of its mirror slot; everything else (and any
	// mirror miss) takes the authoritative RoR invocation below.
	if vb, ok := dpRouteRead(m.dp, r, p, kb); ok {
		v, derr := m.vbox.Decode(vb)
		if derr == nil {
			return v, true, nil
		}
	}
	resp, err := m.rt.engine.Invoke(r, node, m.fns.find, kb)
	if err != nil {
		// Read-failover: a dead primary does not fail the read when a
		// replica still holds the partition's acked state.
		if m.repl != nil && errors.Is(err, fabric.ErrNodeDown) {
			if fresp, ferr := m.repl.failoverFind(r, p, kb); ferr == nil {
				return m.decodeFind(fresp)
			}
		}
		return zero, false, err
	}
	if m.repl != nil && isDeadResp(resp) {
		// The primary answered but its partition crashed and awaits
		// repair; a replica still holds the acked state.
		fresp, ferr := m.repl.failoverFind(r, p, kb)
		if ferr != nil {
			return zero, false, ferr
		}
		resp = fresp
	}
	return m.decodeFind(resp)
}

// FindAsync is the future-returning form of Find.
func (m *UnorderedMap[K, V]) FindAsync(r *cluster.Rank, k K) *Future[FindResult[V]] {
	var kbuf [keyBuf]byte
	p, kb, err := m.partitionOnto(kbuf[:], k)
	if err != nil {
		return immediateFuture(FindResult[V]{}, err)
	}
	node := m.servers[p]
	if vb, ok, hit := m.dp.CacheGet(p, kb, r.Clock().Now()); hit {
		m.rt.localCharge(r, len(kb), 1, "umap", m.name, "find")
		if !ok {
			return immediateFuture(FindResult[V]{}, nil)
		}
		v, derr := m.vbox.Decode(vb)
		if derr != nil {
			return immediateFuture(FindResult[V]{}, derr)
		}
		return immediateFuture(FindResult[V]{Value: v, OK: true}, nil)
	}
	if m.opt.hybrid && node == r.Node() {
		var v V
		var ok bool
		if m.rg != nil {
			m.rg.Read(StableHash64(kb), func(p int) { v, ok = m.parts[p].Find(k) })
		} else {
			v, ok = m.parts[p].Find(k)
		}
		m.rt.localCharge(r, len(kb), 2, "umap", m.name, "find")
		return immediateFuture(FindResult[V]{Value: v, OK: ok}, nil)
	}
	if vb, ok := dpRouteRead(m.dp, r, p, kb); ok {
		if v, derr := m.vbox.Decode(vb); derr == nil {
			return immediateFuture(FindResult[V]{Value: v, OK: true}, nil)
		}
	}
	raw := m.rt.engine.InvokeAsync(r, node, m.fns.find, kb)
	return remoteFuture(raw, func(resp []byte) (FindResult[V], error) {
		v, ok, err := m.decodeFind(resp)
		return FindResult[V]{Value: v, OK: ok}, err
	})
}

func (m *UnorderedMap[K, V]) decodeFind(resp []byte) (V, bool, error) {
	var zero V
	if len(resp) < 1 {
		return zero, false, fmt.Errorf("hcl: %s: empty find response", m.name)
	}
	if resp[0] == 0 {
		return zero, false, nil
	}
	v, err := m.vbox.Decode(resp[1:])
	if err != nil {
		return zero, false, err
	}
	return v, true, nil
}

// Erase removes k, reporting whether it was present.
func (m *UnorderedMap[K, V]) Erase(r *cluster.Rank, k K) (bool, error) {
	var kbuf [keyBuf]byte
	p, kb, err := m.partitionOnto(kbuf[:], k)
	if err != nil {
		return false, err
	}
	node := m.servers[p]
	if m.opt.hybrid && node == r.Node() {
		if m.rg != nil {
			ok := m.rg.Mutate(StableHash64(kb), func(p int) bool {
				return m.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
					return m.parts[p].Delete(k)
				})
			})
			m.rt.localCharge(r, len(kb), 2, "umap", m.name, "erase")
			return ok, nil
		}
		if m.repl != nil {
			return m.mutateLocal(r, p, replDel, kb, nil, "erase", dataplane.PubClear, func() bool {
				ok := m.parts[p].Delete(k)
				m.appendJournalDel(p, kb)
				return ok
			})
		}
		ok := m.applyAt(p, kb, dataplane.PubClear, nil, func() bool {
			n := m.parts[p].Delete(k)
			m.appendJournalDel(p, kb)
			return n
		})
		m.rt.localCharge(r, len(kb), 2, "umap", m.name, "erase")
		return ok, nil
	}
	if m.repl != nil {
		return m.repl.invokeMutation(r, node, m.fns.erase, kb, replDel, p, kb, nil)
	}
	resp, err := m.rt.engine.Invoke(r, node, m.fns.erase, kb)
	if err != nil {
		return false, err
	}
	return decodeBool(resp)
}

// Resize grows the partition identified by partitionID to hold at least
// newSize entries (paper Table I). The operation is localized to that
// partition; no global synchronization occurs.
func (m *UnorderedMap[K, V]) Resize(r *cluster.Rank, partitionID, newSize int) (bool, error) {
	if partitionID < 0 || partitionID >= len(m.parts) {
		return false, fmt.Errorf("hcl: %s: partition %d out of range", m.name, partitionID)
	}
	node := m.servers[partitionID]
	if m.opt.hybrid && node == r.Node() {
		n := m.parts[partitionID].Len()
		m.parts[partitionID].Reserve(newSize)
		m.rt.localCharge(r, 0, 2*n+1, "umap", m.name, "resize")
		return true, nil
	}
	var arg [16]byte
	binary.LittleEndian.PutUint64(arg[:8], uint64(newSize))
	wire := arg[:8]
	if m.rg != nil {
		// Address the partition explicitly: with vshard placement a node
		// may host several partitions.
		binary.LittleEndian.PutUint64(arg[8:], uint64(partitionID))
		wire = arg[:16]
	}
	resp, err := m.rt.engine.Invoke(r, node, m.fns.resize, wire)
	if err != nil {
		return false, err
	}
	return decodeBool(resp)
}

// Size reports the total entry count across all partitions (one
// invocation per remote partition).
func (m *UnorderedMap[K, V]) Size(r *cluster.Rank) (int, error) {
	total := 0
	if m.rg != nil {
		// One invocation per distinct node: the size handler sums every
		// partition its node hosts. A size that races a live migration is
		// momentarily fuzzy (a dual-written key counts at both ends until
		// the drain) — the checkers size only quiesced containers.
		seen := make(map[int]bool, len(m.servers))
		for _, node := range m.servers {
			if seen[node] {
				continue
			}
			seen[node] = true
			if m.opt.hybrid && node == r.Node() {
				for p, n := range m.servers {
					if n == node {
						total += m.parts[p].Len()
					}
				}
				m.rt.localCharge(r, 0, 1, "umap", m.name, "size")
				continue
			}
			resp, err := m.rt.engine.Invoke(r, node, m.fns.size, nil)
			if err != nil {
				return 0, err
			}
			total += int(binary.LittleEndian.Uint64(resp))
		}
		return total, nil
	}
	for p, node := range m.servers {
		if m.opt.hybrid && node == r.Node() {
			total += m.parts[p].Len()
			m.rt.localCharge(r, 0, 1, "umap", m.name, "size")
			continue
		}
		resp, err := m.rt.engine.Invoke(r, node, m.fns.size, nil)
		if err != nil {
			return 0, err
		}
		total += int(binary.LittleEndian.Uint64(resp))
	}
	return total, nil
}

// LocalPartition exposes the partition co-located with rank r, or nil if
// r's node hosts none. Used by applications that iterate their shard.
func (m *UnorderedMap[K, V]) LocalPartition(r *cluster.Rank) *containers.CuckooMap[K, V] {
	if p, ok := m.byNode[r.Node()]; ok {
		return m.parts[p]
	}
	return nil
}

// FindResult carries an optional value through a Future.
type FindResult[V any] struct {
	Value V
	OK    bool
}

// Helpers shared by the container implementations -----------------------

// bit encodes a bool as the byte a response carries.
func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// foundReply builds the framed [status][found=1][value] reply of a find
// or pop in one buffer.
func foundReply[T any](box *databox.Box[T], v T) ([]byte, error) {
	n, _ := box.EncodedLen(v)
	return box.AppendEncode(append(ror.Reply(1+n), 1), v)
}

// Framed one-byte replies (ror.BindFramed), shared by every handler and
// never written: the status byte, then the container's payload byte.
var (
	replyFalse = append(ror.Reply(1), 0)
	replyTrue  = append(ror.Reply(1), 1)
)

func boolReply(b bool) []byte {
	if b {
		return replyTrue
	}
	return replyFalse
}

func decodeBool(resp []byte) (bool, error) {
	if len(resp) != 1 {
		return false, fmt.Errorf("hcl: bad bool response length %d", len(resp))
	}
	return resp[0] != 0, nil
}

// encodePair builds the [key][value] argument of a keyed mutation. When
// the value's encoded size is known up front it is encoded straight into
// the one exactly-sized argument; vb aliases the value field.
func encodePair[V any](box *databox.Box[V], kb []byte, v V) (arg, vb []byte, err error) {
	n, known := box.EncodedLen(v)
	if !known {
		if vb, err = box.Encode(v); err != nil {
			return nil, nil, err
		}
		return databox.EncodePair(kb, vb), vb, nil
	}
	arg = make([]byte, 0, 2*binary.MaxVarintLen64+len(kb)+n)
	arg = databox.AppendField(arg, kb)
	arg = binary.AppendUvarint(arg, uint64(n))
	off := len(arg)
	if arg, err = box.AppendEncode(arg, v); err != nil {
		return nil, nil, err
	}
	return arg, arg[off:], nil
}

// appendField appends v's encoding to dst as one length-prefixed field
// (databox.AppendField), encoding in place when its size is known.
func appendField[T any](box *databox.Box[T], dst []byte, v T) ([]byte, error) {
	if n, ok := box.EncodedLen(v); ok {
		return box.AppendEncode(binary.AppendUvarint(dst, uint64(n)), v)
	}
	vb, err := box.Encode(v)
	if err != nil {
		return nil, err
	}
	return databox.AppendField(dst, vb), nil
}

// listCap is the room databox.EncodeList over n values of box needs:
// exact up to varint slack for fixed-size values, a floor otherwise.
func listCap[T any](box *databox.Box[T], n int) int {
	size := binary.MaxVarintLen64
	if w, ok := box.Fixed(); ok {
		size += n * (w + binary.MaxVarintLen64)
	}
	return size
}

// appendList appends databox.EncodeList over the encodings of vals to
// dst, building the list in dst's buffer (see listCap).
func appendList[T any](dst []byte, box *databox.Box[T], vals []T) ([]byte, error) {
	out := binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		var err error
		if out, err = appendField(box, out, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// payloadSize estimates the in-memory size of a value for hybrid-path cost
// accounting without a full serialization when possible.
func payloadSize[T any](box *databox.Box[T], v T) int {
	switch x := any(v).(type) {
	case []byte:
		return len(x)
	case string:
		return len(x)
	}
	if n, ok := box.Fixed(); ok {
		return n
	}
	if b, err := box.Encode(v); err == nil {
		return len(b)
	}
	return 0
}
