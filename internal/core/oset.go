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

// Set is HCL::set — a distributed ordered set: ordered partitions holding
// keys only, with global ordered iteration by stream merging. Like the
// ordered map it defaults to the lock-free skip-list engine.
type Set[K comparable] struct {
	rt      *Runtime
	fns     keyedVerbs
	name    string
	opt     options
	servers []int
	parts   []containers.OrderedEngine[K, struct{}]
	byNode  map[int]int
	less    Less[K]
	kbox    *databox.Box[K]
	repl    *replGroup[K, struct{}]
	dp      *dataplane.Plane
}

// NewSet constructs a distributed ordered set with the given comparator.
func NewSet[K comparable](rt *Runtime, name string, less Less[K], opts ...Option) (*Set[K], error) {
	o := buildOptions(opts)
	if name == "" {
		name = rt.autoName("set")
	}
	if less == nil {
		return nil, fmt.Errorf("hcl: %s: nil comparator", name)
	}
	if o.persistDir != "" {
		return nil, fmt.Errorf("hcl: %s: persistence is not supported for ordered sets", name)
	}
	if o.vnodes > 0 {
		return nil, fmt.Errorf("hcl: %s: virtual nodes on an ordered set: %w", name, ErrResharding)
	}
	servers := o.servers
	if servers == nil {
		servers = allNodes(rt)
	}
	s := &Set[K]{
		rt:      rt,
		fns:     newKeyedVerbs("oset", name),
		name:    name,
		opt:     o,
		servers: servers,
		parts:   make([]containers.OrderedEngine[K, struct{}], len(servers)),
		byNode:  make(map[int]int, len(servers)),
		less:    less,
		kbox:    databox.New[K](databox.WithCodec(o.codec)),
	}
	for i, n := range servers {
		s.parts[i] = newOrderedEngine[K, struct{}](o.ordered, less)
		s.byNode[n] = i
	}
	// Replica copies live in hash maps even for ordered containers: they
	// only serve point failover reads and repair snapshots, never scans.
	s.repl = newReplGroup(rt, name, s.fns.prefix, servers, s.byNode,
		func(p int) replPart[K, struct{}] { return s.parts[p] },
		s.kbox, nil, true, o)
	// Routing + leases only, no slot mirror: see the ordered-map note.
	s.dp = newPlane(rt, "oset", name, servers, o, false)
	s.bind()
	if s.dp != nil {
		rt.engine.SetReadThrough(s.fns.find, func(arg []byte) ([]byte, bool) {
			p := int(StableHash64(arg) % uint64(len(servers)))
			_, ok, hit := s.dp.CacheGet(p, arg, 0)
			if !hit {
				return nil, false
			}
			return []byte{bit(ok)}, true
		})
	}
	return s, nil
}

// Name returns the container's global name.
func (s *Set[K]) Name() string { return s.name }

// Partitions reports the number of partitions.
func (s *Set[K]) Partitions() int { return len(s.servers) }

func (s *Set[K]) partitionOf(k K) (int, []byte, error) {
	return s.partitionOnto(nil, k)
}

// partitionOnto is partitionOf encoding the key onto buf[:0].
func (s *Set[K]) partitionOnto(buf []byte, k K) (int, []byte, error) {
	kb, err := s.kbox.AppendEncode(buf[:0], k)
	if err != nil {
		return 0, nil, fmt.Errorf("hcl: %s: encode key: %w", s.name, err)
	}
	return int(StableHash64(kb) % uint64(len(s.servers))), kb, nil
}

func (s *Set[K]) bind() {
	e := s.rt.engine
	cm := s.rt.model
	ror.BindFramed(e, s.fns.insert, func(node int, arg []byte) ([]byte, int64) {
		p := s.byNode[node]
		k, err := s.kbox.Decode(arg)
		if err != nil {
			panic(err)
		}
		part := s.parts[p]
		cost := logCost(cm.TreeOpNS, part.Len()) + cm.MemTime(len(arg))
		apply := func() bool {
			return s.dp.WrapMutation(p, arg, dataplane.PubClear, nil, func() bool {
				return part.Insert(k, struct{}{})
			})
		}
		if s.repl == nil {
			return boolReply(apply()), cost
		}
		isNew, fcost, rerr := s.repl.mutate(p, replPut, arg, nil, apply)
		return mutReply(isNew, rerr), cost + fcost
	})
	ror.BindFramed(e, s.fns.find, func(node int, arg []byte) ([]byte, int64) {
		p := s.byNode[node]
		if s.repl != nil && s.repl.isDead(p) {
			// Crashed, awaiting repair: the wiped primary must not serve
			// reads. The marker sends the client to a replica.
			return deadReply(), cm.LocalOpNS
		}
		k, err := s.kbox.Decode(arg)
		if err != nil {
			panic(err)
		}
		part := s.parts[p]
		if s.dp != nil {
			_, ok := s.dp.GrantRead(p, arg, func() ([]byte, bool) {
				_, ok := part.Find(k)
				return nil, ok
			})
			return boolReply(ok), logCost(cm.TreeOpNS, part.Len())
		}
		_, ok := part.Find(k)
		return boolReply(ok), logCost(cm.TreeOpNS, part.Len())
	})
	ror.BindFramed(e, s.fns.erase, func(node int, arg []byte) ([]byte, int64) {
		p := s.byNode[node]
		k, err := s.kbox.Decode(arg)
		if err != nil {
			panic(err)
		}
		part := s.parts[p]
		cost := logCost(cm.TreeOpNS, part.Len())
		apply := func() bool {
			return s.dp.WrapMutation(p, arg, dataplane.PubClear, nil, func() bool {
				return part.Delete(k)
			})
		}
		if s.repl == nil {
			return boolReply(apply()), cost
		}
		ok, fcost, rerr := s.repl.mutate(p, replDel, arg, nil, apply)
		return mutReply(ok, rerr), cost + fcost
	})
	e.Bind(s.fns.size, func(node int, arg []byte) ([]byte, int64) {
		p := s.byNode[node]
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], uint64(s.parts[p].Len()))
		return out[:], cm.LocalOpNS
	})
	e.Bind(s.fns.scan, func(node int, arg []byte) ([]byte, int64) {
		p := s.byNode[node]
		limit := int(binary.LittleEndian.Uint64(arg))
		var out [][]byte
		part := s.parts[p]
		part.Range(func(k K, _ struct{}) bool {
			kb, err := s.kbox.Encode(k)
			if err != nil {
				panic(err)
			}
			out = append(out, kb)
			return len(out) < limit
		})
		resp := databox.EncodeList(out...)
		return resp, logCost(cm.TreeOpNS, part.Len()) + int64(len(out))*cm.LocalOpNS + cm.MemTime(len(resp))
	})
}

// Insert adds k, returning true when it was not already present.
func (s *Set[K]) Insert(r *cluster.Rank, k K) (bool, error) {
	var kbuf [keyBuf]byte
	p, kb, err := s.partitionOnto(kbuf[:], k)
	if err != nil {
		return false, err
	}
	node := s.servers[p]
	if s.opt.hybrid && node == r.Node() {
		part := s.parts[p]
		if s.repl != nil {
			return s.mutateLocal(r, p, replPut, kb, "insert", func() bool {
				return s.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
					return part.Insert(k, struct{}{})
				})
			})
		}
		isNew := s.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
			return part.Insert(k, struct{}{})
		})
		s.rt.localCharge(r, len(kb), 1+logSteps(part.Len()), "oset", s.name, "insert")
		return isNew, nil
	}
	if s.repl != nil {
		return s.repl.invokeMutation(r, node, s.fns.insert, kb, replPut, p, kb, nil)
	}
	resp, err := s.rt.engine.Invoke(r, node, s.fns.insert, kb)
	if err != nil {
		return false, err
	}
	return decodeBool(resp)
}

// mutateLocal runs the hybrid-path form of a replicated mutation through
// the full forward-first protocol (a co-located writer cannot bypass the
// quorum), billing the forward time to the caller's clock.
func (s *Set[K]) mutateLocal(r *cluster.Rank, p int, verb byte, kb []byte, op string, apply func() bool) (bool, error) {
	res, fcost, rerr := s.repl.mutate(p, verb, kb, nil, apply)
	s.rt.localCharge(r, len(kb), 1+logSteps(s.parts[p].Len()), "oset", s.name, op)
	r.Clock().Advance(fcost)
	return res, rerr
}

// CrashNode simulates process death of node for fault-injection drivers:
// its primary partition and any replica copies it holds are wiped.
func (s *Set[K]) CrashNode(node int) {
	if s.repl != nil {
		s.repl.CrashNode(node)
		s.fence(node)
		return
	}
	if p, ok := s.byNode[node]; ok {
		wipePart[K, struct{}](s.parts[p])
	}
	s.fence(node)
}

// fence bumps the dataplane lease epoch of node's partition so no
// pre-crash lease can serve another read.
func (s *Set[K]) fence(node int) {
	if s.dp == nil {
		return
	}
	if p, ok := s.byNode[node]; ok {
		s.dp.Fence(p)
	}
}

// RepairNode anti-entropy-repairs node's partition from a live replica
// before it rejoins; no-op without replication.
func (s *Set[K]) RepairNode(node int) error {
	if s.repl == nil {
		return nil
	}
	err := s.repl.RepairNode(node)
	s.fence(node)
	return err
}

// FlushReplication drains queued asynchronous forwards (ReplAsync mode).
func (s *Set[K]) FlushReplication() {
	if s.repl != nil {
		s.repl.Flush()
	}
}

// InsertAsync is the future-returning form of Insert.
func (s *Set[K]) InsertAsync(r *cluster.Rank, k K) *Future[bool] {
	var kbuf [keyBuf]byte
	p, kb, err := s.partitionOnto(kbuf[:], k)
	if err != nil {
		return immediateFuture(false, err)
	}
	node := s.servers[p]
	if s.opt.hybrid && node == r.Node() {
		part := s.parts[p]
		if s.repl != nil {
			isNew, rerr := s.mutateLocal(r, p, replPut, kb, "insert", func() bool {
				return s.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
					return part.Insert(k, struct{}{})
				})
			})
			return immediateFuture(isNew, rerr)
		}
		isNew := s.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
			return part.Insert(k, struct{}{})
		})
		s.rt.localCharge(r, len(kb), 1+logSteps(part.Len()), "oset", s.name, "insert")
		return immediateFuture(isNew, nil)
	}
	raw := s.rt.engine.InvokeAsync(r, node, s.fns.insert, kb)
	if s.repl != nil {
		return remoteFuture(raw, s.repl.decodeMutResp)
	}
	return remoteFuture(raw, decodeBool)
}

// Find reports whether k is in the set.
func (s *Set[K]) Find(r *cluster.Rank, k K) (bool, error) {
	var kbuf [keyBuf]byte
	p, kb, err := s.partitionOnto(kbuf[:], k)
	if err != nil {
		return false, err
	}
	node := s.servers[p]
	if _, ok, hit := s.dp.CacheGet(p, kb, r.Clock().Now()); hit {
		s.rt.localCharge(r, len(kb), 1, "oset", s.name, "find")
		return ok, nil
	}
	if s.opt.hybrid && node == r.Node() && (s.repl == nil || !s.repl.isDead(p)) {
		part := s.parts[p]
		_, ok := part.Find(k)
		s.rt.localCharge(r, len(kb), 1+logSteps(part.Len()), "oset", s.name, "find")
		return ok, nil
	}
	resp, err := s.rt.engine.Invoke(r, node, s.fns.find, kb)
	if err != nil {
		// Read-failover: a dead primary does not fail the read when a
		// replica still holds the partition's acked state.
		if s.repl != nil && errors.Is(err, fabric.ErrNodeDown) {
			if fresp, ferr := s.repl.failoverFind(r, p, kb); ferr == nil {
				return decodeBool(fresp)
			}
		}
		return false, err
	}
	if s.repl != nil && isDeadResp(resp) {
		// The primary answered but its partition crashed and awaits
		// repair; a replica still holds the acked state.
		fresp, ferr := s.repl.failoverFind(r, p, kb)
		if ferr != nil {
			return false, ferr
		}
		resp = fresp
	}
	return decodeBool(resp)
}

// Erase removes k, reporting whether it was present.
func (s *Set[K]) Erase(r *cluster.Rank, k K) (bool, error) {
	var kbuf [keyBuf]byte
	p, kb, err := s.partitionOnto(kbuf[:], k)
	if err != nil {
		return false, err
	}
	node := s.servers[p]
	if s.opt.hybrid && node == r.Node() {
		part := s.parts[p]
		if s.repl != nil {
			return s.mutateLocal(r, p, replDel, kb, "erase", func() bool {
				return s.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
					return part.Delete(k)
				})
			})
		}
		ok := s.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
			return part.Delete(k)
		})
		s.rt.localCharge(r, len(kb), 1+logSteps(part.Len()), "oset", s.name, "erase")
		return ok, nil
	}
	if s.repl != nil {
		return s.repl.invokeMutation(r, node, s.fns.erase, kb, replDel, p, kb, nil)
	}
	resp, err := s.rt.engine.Invoke(r, node, s.fns.erase, kb)
	if err != nil {
		return false, err
	}
	return decodeBool(resp)
}

// Size reports the total element count.
func (s *Set[K]) Size(r *cluster.Rank) (int, error) {
	total := 0
	for p, node := range s.servers {
		if s.opt.hybrid && node == r.Node() {
			total += s.parts[p].Len()
			s.rt.localCharge(r, 0, 1, "oset", s.name, "size")
			continue
		}
		resp, err := s.rt.engine.Invoke(r, node, s.fns.size, nil)
		if err != nil {
			return 0, err
		}
		total += int(binary.LittleEndian.Uint64(resp))
	}
	return total, nil
}

// Scan returns up to limit elements in ascending global order.
func (s *Set[K]) Scan(r *cluster.Rank, limit int) ([]K, error) {
	if limit <= 0 {
		return nil, nil
	}
	streams := make([][]Pair[K, struct{}], len(s.parts))
	for p, node := range s.servers {
		if s.opt.hybrid && node == r.Node() {
			var entries []Pair[K, struct{}]
			s.parts[p].Range(func(k K, _ struct{}) bool {
				entries = append(entries, Pair[K, struct{}]{Key: k})
				return len(entries) < limit
			})
			s.rt.localCharge(r, 0, len(entries)+1, "oset", s.name, "scan")
			streams[p] = entries
			continue
		}
		var arg [8]byte
		binary.LittleEndian.PutUint64(arg[:], uint64(limit))
		resp, err := s.rt.engine.Invoke(r, node, s.fns.scan, arg[:])
		if err != nil {
			return nil, err
		}
		raw, err := databox.DecodeList(resp)
		if err != nil {
			return nil, err
		}
		entries := make([]Pair[K, struct{}], 0, len(raw))
		for _, kb := range raw {
			k, err := s.kbox.Decode(kb)
			if err != nil {
				return nil, err
			}
			entries = append(entries, Pair[K, struct{}]{Key: k})
		}
		streams[p] = entries
	}
	merged := mergeStreams(streams, s.less, limit)
	out := make([]K, len(merged))
	for i, p := range merged {
		out[i] = p.Key
	}
	return out, nil
}
