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
	"hcl/internal/ror"
)

// Less orders keys; HCL defaults to natural ordering for Go's ordered
// types via NaturalLess, mirroring the paper's std::less<K> default that
// users can override.
type Less[K any] func(a, b K) bool

// Map is HCL::map — a distributed ordered map. Ordered structures are
// "built using multiple single-partitioned structures that are abstracted
// behind a global interface" (paper Section III-D): each partition is an
// ordered engine (lock-free skip list by default, latched red-black tree
// for the ablation); global ordered iteration merges the per-partition
// streams. Keys are routed to partitions with the stable hash, so point
// operations cost one invocation like every other container.
type Map[K comparable, V any] struct {
	rt      *Runtime
	fns     keyedVerbs
	name    string
	opt     options
	servers []int
	parts   []containers.OrderedEngine[K, V]
	byNode  map[int]int
	less    Less[K]
	kbox    *databox.Box[K]
	vbox    *databox.Box[V]
	repl    *replGroup[K, V]
	dp      *dataplane.Plane
}

// NewMap constructs a distributed ordered map with the given comparator.
func NewMap[K comparable, V any](rt *Runtime, name string, less Less[K], opts ...Option) (*Map[K, V], error) {
	o := buildOptions(opts)
	if name == "" {
		name = rt.autoName("map")
	}
	if less == nil {
		return nil, fmt.Errorf("hcl: %s: nil comparator", name)
	}
	if o.persistDir != "" {
		// Journals exist only for UnorderedMap; silently ignoring the
		// option would promise durability the container cannot deliver.
		return nil, fmt.Errorf("hcl: %s: persistence is not supported for ordered maps", name)
	}
	if o.vnodes > 0 {
		// Vshard migration would interleave arbitrarily with range scans;
		// only the unordered containers support live resharding.
		return nil, fmt.Errorf("hcl: %s: virtual nodes on an ordered map: %w", name, ErrResharding)
	}
	servers := o.servers
	if servers == nil {
		servers = allNodes(rt)
	}
	m := &Map[K, V]{
		rt:      rt,
		fns:     newKeyedVerbs("omap", name),
		name:    name,
		opt:     o,
		servers: servers,
		parts:   make([]containers.OrderedEngine[K, V], len(servers)),
		byNode:  make(map[int]int, len(servers)),
		less:    less,
		kbox:    databox.New[K](databox.WithCodec(o.codec)),
		vbox:    databox.New[V](databox.WithCodec(o.codec)),
	}
	for i, n := range servers {
		m.parts[i] = newOrderedEngine[K, V](o.ordered, less)
		m.byNode[n] = i
	}
	// Replica copies live in hash maps even for ordered containers: the
	// copy only serves point lookups and repair snapshots, never ordered
	// scans, so the cheaper structure wins.
	m.repl = newReplGroup(rt, name, m.fns.prefix, servers, m.byNode,
		func(p int) replPart[K, V] { return m.parts[p] },
		m.kbox, m.vbox, false, o)
	// Ordered partitions get routing + leases but no slot mirror: their
	// reads interleave with ordered scans, which fixed-size slots cannot
	// serve, so the one-sided route never wins here.
	m.dp = newPlane(rt, "omap", name, servers, o, false)
	m.bind()
	if m.dp != nil {
		rt.engine.SetReadThrough(m.fns.find, func(arg []byte) ([]byte, bool) {
			p := int(StableHash64(arg) % uint64(len(servers)))
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

func newOrderedEngine[K comparable, V any](kind OrderedEngineKind, less Less[K]) containers.OrderedEngine[K, V] {
	if kind == EngineRBTree {
		return containers.NewLatchedRBTree[K, V](less)
	}
	return containers.NewSkipList[K, V](less)
}

// Name returns the container's global name.
func (m *Map[K, V]) Name() string { return m.name }

// Partitions reports the number of partitions.
func (m *Map[K, V]) Partitions() int { return len(m.servers) }

func (m *Map[K, V]) partitionOf(k K) (int, []byte, error) {
	return m.partitionOnto(nil, k)
}

// partitionOnto is partitionOf encoding the key onto buf[:0].
func (m *Map[K, V]) partitionOnto(buf []byte, k K) (int, []byte, error) {
	kb, err := m.kbox.AppendEncode(buf[:0], k)
	if err != nil {
		return 0, nil, fmt.Errorf("hcl: %s: encode key: %w", m.name, err)
	}
	return int(StableHash64(kb) % uint64(len(m.servers))), kb, nil
}

// logCost prices an O(log n) engine operation for the cost model.
func logCost(base int64, n int) int64 {
	steps := int64(1)
	for m := n; m > 1; m >>= 1 {
		steps++
	}
	return base * steps
}

func (m *Map[K, V]) bind() {
	e := m.rt.engine
	cm := m.rt.model
	ror.BindFramed(e, m.fns.insert, func(node int, arg []byte) ([]byte, int64) {
		p := m.byNode[node]
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
		part := m.parts[p]
		// Table I: insert = F + L*log(N) + W.
		cost := logCost(cm.TreeOpNS, part.Len()) + cm.MemTime(len(arg))
		apply := func() bool {
			return m.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
				return part.Insert(k, v)
			})
		}
		if m.repl == nil {
			return boolReply(apply()), cost
		}
		isNew, fcost, rerr := m.repl.mutate(p, replPut, kb, vb, apply)
		return mutReply(isNew, rerr), cost + fcost
	})
	ror.BindFramed(e, m.fns.find, func(node int, arg []byte) ([]byte, int64) {
		p := m.byNode[node]
		if m.repl != nil && m.repl.isDead(p) {
			// Crashed, awaiting repair: the wiped primary must not serve
			// reads. The marker sends the client to a replica.
			return deadReply(), cm.LocalOpNS
		}
		k, err := m.kbox.Decode(arg)
		if err != nil {
			panic(err)
		}
		part := m.parts[p]
		// The reply is built once: [status][found][value].
		var out []byte
		_, ok := m.dp.GrantRead(p, arg, func() ([]byte, bool) {
			v, found := part.Find(k)
			if !found {
				return nil, false
			}
			if out, err = foundReply(m.vbox, v); err != nil {
				panic(err)
			}
			return out[2:], true
		})
		cost := logCost(cm.TreeOpNS, part.Len())
		if !ok {
			return replyFalse, cost
		}
		return out, cost + cm.MemTime(len(out)-2)
	})
	ror.BindFramed(e, m.fns.erase, func(node int, arg []byte) ([]byte, int64) {
		p := m.byNode[node]
		k, err := m.kbox.Decode(arg)
		if err != nil {
			panic(err)
		}
		part := m.parts[p]
		cost := logCost(cm.TreeOpNS, part.Len())
		apply := func() bool {
			return m.dp.WrapMutation(p, arg, dataplane.PubClear, nil, func() bool {
				return part.Delete(k)
			})
		}
		if m.repl == nil {
			return boolReply(apply()), cost
		}
		ok, fcost, rerr := m.repl.mutate(p, replDel, arg, nil, apply)
		return mutReply(ok, rerr), cost + fcost
	})
	e.Bind(m.fns.size, func(node int, arg []byte) ([]byte, int64) {
		p := m.byNode[node]
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], uint64(m.parts[p].Len()))
		return out[:], cm.LocalOpNS
	})
	e.Bind(m.fns.scan, func(node int, arg []byte) ([]byte, int64) {
		// scan(fromFlag, fromKey, limit) -> list of pairs, used by the
		// global merge iterator.
		p := m.byNode[node]
		fields, err := databox.DecodeList(arg)
		if err != nil || len(fields) != 3 {
			panic(fmt.Sprintf("hcl: %s: bad scan request: %v", m.name, err))
		}
		limit := int(binary.LittleEndian.Uint64(fields[2]))
		var out [][]byte
		emit := func(k K, v V) bool {
			kb, err := m.kbox.Encode(k)
			if err != nil {
				panic(err)
			}
			vb, err := m.vbox.Encode(v)
			if err != nil {
				panic(err)
			}
			out = append(out, databox.EncodePair(kb, vb))
			return len(out) < limit
		}
		part := m.parts[p]
		if len(fields[0]) == 1 && fields[0][0] == 1 {
			from, err := m.kbox.Decode(fields[1])
			if err != nil {
				panic(err)
			}
			part.RangeFrom(from, emit)
		} else {
			part.Range(emit)
		}
		resp := databox.EncodeList(out...)
		return resp, logCost(cm.TreeOpNS, part.Len()) + int64(len(out))*cm.LocalOpNS + cm.MemTime(len(resp))
	})
}

// Insert stores v under k, returning true when k was newly inserted.
func (m *Map[K, V]) Insert(r *cluster.Rank, k K, v V) (bool, error) {
	var kbuf [keyBuf]byte
	p, kb, err := m.partitionOnto(kbuf[:], k)
	if err != nil {
		return false, err
	}
	node := m.servers[p]
	if m.opt.hybrid && node == r.Node() {
		part := m.parts[p]
		if m.repl != nil {
			vb, err := m.vbox.Encode(v)
			if err != nil {
				return false, err
			}
			return m.mutateLocal(r, p, replPut, kb, vb, "insert", func() bool {
				return m.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
					return part.Insert(k, v)
				})
			})
		}
		isNew := m.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
			return part.Insert(k, v)
		})
		m.rt.localCharge(r, len(kb)+payloadSize(m.vbox, v), 1+logSteps(part.Len()), "omap", m.name, "insert")
		return isNew, nil
	}
	arg, vb, err := encodePair(m.vbox, kb, v)
	if err != nil {
		return false, err
	}
	if m.repl != nil {
		return m.repl.invokeMutation(r, node, m.fns.insert, arg, replPut, p, kb, vb)
	}
	resp, err := m.rt.engine.Invoke(r, node, m.fns.insert, arg)
	if err != nil {
		return false, err
	}
	return decodeBool(resp)
}

// mutateLocal runs the hybrid-path form of a replicated mutation through
// the full forward-first protocol (a co-located writer cannot bypass the
// quorum), billing the forward time to the caller's clock.
func (m *Map[K, V]) mutateLocal(r *cluster.Rank, p int, verb byte, kb, vb []byte, op string, apply func() bool) (bool, error) {
	res, fcost, rerr := m.repl.mutate(p, verb, kb, vb, apply)
	m.rt.localCharge(r, len(kb)+len(vb), 1+logSteps(m.parts[p].Len()), "omap", m.name, op)
	r.Clock().Advance(fcost)
	return res, rerr
}

// CrashNode simulates process death of node for fault-injection drivers:
// its primary partition and any replica copies it holds are wiped.
func (m *Map[K, V]) CrashNode(node int) {
	if m.repl != nil {
		m.repl.CrashNode(node)
		m.fence(node)
		return
	}
	if p, ok := m.byNode[node]; ok {
		wipePart[K, V](m.parts[p])
	}
	m.fence(node)
}

// fence bumps the dataplane lease epoch of node's partition so no
// pre-crash lease can serve another read.
func (m *Map[K, V]) fence(node int) {
	if m.dp == nil {
		return
	}
	if p, ok := m.byNode[node]; ok {
		m.dp.Fence(p)
	}
}

// RepairNode anti-entropy-repairs node's partition from a live replica
// before it rejoins; no-op without replication.
func (m *Map[K, V]) RepairNode(node int) error {
	if m.repl == nil {
		return nil
	}
	err := m.repl.RepairNode(node)
	m.fence(node)
	return err
}

// FlushReplication drains queued asynchronous forwards (ReplAsync mode).
func (m *Map[K, V]) FlushReplication() {
	if m.repl != nil {
		m.repl.Flush()
	}
}

// InsertAsync is the future-returning form of Insert.
func (m *Map[K, V]) InsertAsync(r *cluster.Rank, k K, v V) *Future[bool] {
	var kbuf [keyBuf]byte
	p, kb, err := m.partitionOnto(kbuf[:], k)
	if err != nil {
		return immediateFuture(false, err)
	}
	node := m.servers[p]
	if m.opt.hybrid && node == r.Node() {
		part := m.parts[p]
		if m.repl != nil {
			vb, err := m.vbox.Encode(v)
			if err != nil {
				return immediateFuture(false, err)
			}
			isNew, rerr := m.mutateLocal(r, p, replPut, kb, vb, "insert", func() bool {
				return m.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
					return part.Insert(k, v)
				})
			})
			return immediateFuture(isNew, rerr)
		}
		isNew := m.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
			return part.Insert(k, v)
		})
		m.rt.localCharge(r, len(kb)+payloadSize(m.vbox, v), 1+logSteps(part.Len()), "omap", m.name, "insert")
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
func (m *Map[K, V]) Find(r *cluster.Rank, k K) (V, bool, error) {
	var zero V
	var kbuf [keyBuf]byte
	p, kb, err := m.partitionOnto(kbuf[:], k)
	if err != nil {
		return zero, false, err
	}
	node := m.servers[p]
	// Lease cache: ordered maps have no mirror, but point reads still hit
	// unexpired leases granted by earlier finds.
	if vb, ok, hit := m.dp.CacheGet(p, kb, r.Clock().Now()); hit {
		m.rt.localCharge(r, len(kb), 1, "omap", m.name, "find")
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
		part := m.parts[p]
		v, ok := part.Find(k)
		m.rt.localCharge(r, len(kb), 1+logSteps(part.Len()), "omap", m.name, "find")
		return v, ok, nil
	}
	resp, err := m.rt.engine.Invoke(r, node, m.fns.find, kb)
	if err != nil {
		// Read-failover: a dead primary does not fail the read when a
		// replica still holds the partition's acked state.
		if m.repl != nil && errors.Is(err, fabric.ErrNodeDown) {
			if fresp, ferr := m.repl.failoverFind(r, p, kb); ferr == nil {
				resp, err = fresp, nil
			}
		}
		if err != nil {
			return zero, false, err
		}
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
func (m *Map[K, V]) Erase(r *cluster.Rank, k K) (bool, error) {
	var kbuf [keyBuf]byte
	p, kb, err := m.partitionOnto(kbuf[:], k)
	if err != nil {
		return false, err
	}
	node := m.servers[p]
	if m.opt.hybrid && node == r.Node() {
		part := m.parts[p]
		if m.repl != nil {
			return m.mutateLocal(r, p, replDel, kb, nil, "erase", func() bool {
				return m.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
					return part.Delete(k)
				})
			})
		}
		ok := m.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
			return part.Delete(k)
		})
		m.rt.localCharge(r, len(kb), 1+logSteps(part.Len()), "omap", m.name, "erase")
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

// Size reports the total entry count across partitions.
func (m *Map[K, V]) Size(r *cluster.Rank) (int, error) {
	total := 0
	for p, node := range m.servers {
		if m.opt.hybrid && node == r.Node() {
			total += m.parts[p].Len()
			m.rt.localCharge(r, 0, 1, "omap", m.name, "size")
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

// Pair is one (key, value) entry produced by an ordered scan.
type Pair[K any, V any] struct {
	Key   K
	Value V
}

// Scan returns up to limit entries with key >= from (all keys when
// fromSet is false), globally ordered by merging the per-partition
// streams — one invocation per remote partition.
func (m *Map[K, V]) Scan(r *cluster.Rank, fromSet bool, from K, limit int) ([]Pair[K, V], error) {
	if limit <= 0 {
		return nil, nil
	}
	streams := make([][]Pair[K, V], len(m.parts))
	for p, node := range m.servers {
		var entries []Pair[K, V]
		if m.opt.hybrid && node == r.Node() {
			emit := func(k K, v V) bool {
				entries = append(entries, Pair[K, V]{k, v})
				return len(entries) < limit
			}
			if fromSet {
				m.parts[p].RangeFrom(from, emit)
			} else {
				m.parts[p].Range(emit)
			}
			m.rt.localCharge(r, 0, len(entries)+1, "omap", m.name, "scan")
		} else {
			var err error
			entries, err = m.remoteScan(r, node, fromSet, from, limit)
			if err != nil {
				return nil, err
			}
		}
		streams[p] = entries
	}
	return mergeStreams(streams, m.less, limit), nil
}

func (m *Map[K, V]) remoteScan(r *cluster.Rank, node int, fromSet bool, from K, limit int) ([]Pair[K, V], error) {
	flag := []byte{0}
	var fromB []byte
	if fromSet {
		flag[0] = 1
		var err error
		fromB, err = m.kbox.Encode(from)
		if err != nil {
			return nil, err
		}
	}
	var limitB [8]byte
	binary.LittleEndian.PutUint64(limitB[:], uint64(limit))
	resp, err := m.rt.engine.Invoke(r, node, m.fns.scan, databox.EncodeList(flag, fromB, limitB[:]))
	if err != nil {
		return nil, err
	}
	raw, err := databox.DecodeList(resp)
	if err != nil {
		return nil, err
	}
	out := make([]Pair[K, V], 0, len(raw))
	for _, pr := range raw {
		kb, vb, err := databox.DecodePair(pr)
		if err != nil {
			return nil, err
		}
		k, err := m.kbox.Decode(kb)
		if err != nil {
			return nil, err
		}
		v, err := m.vbox.Decode(vb)
		if err != nil {
			return nil, err
		}
		out = append(out, Pair[K, V]{k, v})
	}
	return out, nil
}

// mergeStreams k-way merges sorted per-partition streams up to limit.
func mergeStreams[K any, V any](streams [][]Pair[K, V], less Less[K], limit int) []Pair[K, V] {
	idx := make([]int, len(streams))
	out := make([]Pair[K, V], 0, limit)
	for len(out) < limit {
		best := -1
		for s := range streams {
			if idx[s] >= len(streams[s]) {
				continue
			}
			if best < 0 || less(streams[s][idx[s]].Key, streams[best][idx[best]].Key) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		out = append(out, streams[best][idx[best]])
		idx[best]++
	}
	return out
}

func logSteps(n int) int {
	steps := 1
	for m := n; m > 1; m >>= 1 {
		steps++
	}
	return steps
}
