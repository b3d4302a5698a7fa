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

// UnorderedSet is HCL::unordered_set — the key-only sibling of
// UnorderedMap, sharing the same lock-free cuckoo partitions. Because an
// element is only a key, the serialization cost per operation is lower,
// which is why the paper measures sets 7-14% faster than maps.
type UnorderedSet[K comparable] struct {
	rt      *Runtime
	fns     keyedVerbs
	name    string
	opt     options
	servers []int
	parts   []*containers.CuckooMap[K, struct{}]
	byNode  map[int]int
	kbox    *databox.Box[K]
	repl    *replGroup[K, struct{}]
	dp      *dataplane.Plane
	rg      *reshard.Coordinator // vshard routing + live migration; nil without WithVirtualNodes
}

// NewUnorderedSet constructs a distributed unordered set named name.
func NewUnorderedSet[K comparable](rt *Runtime, name string, opts ...Option) (*UnorderedSet[K], error) {
	o := buildOptions(opts)
	if name == "" {
		name = rt.autoName("unordered_set")
	}
	if o.persistDir != "" {
		// Journals exist only for UnorderedMap; silently ignoring the
		// option would promise durability the container cannot deliver.
		return nil, fmt.Errorf("hcl: %s: persistence is not supported for unordered sets", name)
	}
	servers := o.servers
	if servers == nil {
		servers = allNodes(rt)
	}
	s := &UnorderedSet[K]{
		rt:      rt,
		fns:     newKeyedVerbs("uset", name),
		name:    name,
		opt:     o,
		servers: servers,
		parts:   make([]*containers.CuckooMap[K, struct{}], len(servers)),
		byNode:  make(map[int]int, len(servers)),
		kbox:    databox.New[K](databox.WithCodec(o.codec)),
	}
	for i, n := range servers {
		s.parts[i] = containers.NewCuckooMapSize[K, struct{}](o.initialCap)
		s.byNode[n] = i
	}
	rg, err := newCoordinator(rt, "uset", name, servers, o)
	if err != nil {
		return nil, err
	}
	s.rg = rg
	s.repl = newReplGroup(rt, name, s.fns.prefix, servers, s.byNode,
		func(p int) replPart[K, struct{}] { return s.parts[p] },
		s.kbox, nil, true, o)
	s.dp = newPlane(rt, "uset", name, servers, o, true)
	s.bind()
	if s.dp != nil {
		// Client-side cache check before aggregation: a membership test
		// answered by an unexpired lease never joins a batch bucket.
		rt.engine.SetReadThrough(s.fns.find, func(arg []byte) ([]byte, bool) {
			p := s.route(arg)
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
func (s *UnorderedSet[K]) Name() string { return s.name }

// Partitions reports the number of partitions.
func (s *UnorderedSet[K]) Partitions() int { return len(s.servers) }

func (s *UnorderedSet[K]) partitionOf(k K) (int, []byte, error) {
	return s.partitionOnto(nil, k)
}

// partitionOnto is partitionOf encoding the key onto buf[:0].
func (s *UnorderedSet[K]) partitionOnto(buf []byte, k K) (int, []byte, error) {
	kb, err := s.kbox.AppendEncode(buf[:0], k)
	if err != nil {
		return 0, nil, fmt.Errorf("hcl: %s: encode key: %w", s.name, err)
	}
	return s.route(kb), kb, nil
}

// route resolves the encoded key's owning partition — the vshard table
// when virtual nodes are on, the paper's static modulus otherwise (see
// UnorderedMap.route).
func (s *UnorderedSet[K]) route(kb []byte) int {
	if s.rg != nil {
		return s.rg.Partition(StableHash64(kb))
	}
	return int(StableHash64(kb) % uint64(len(s.servers)))
}

func (s *UnorderedSet[K]) bind() {
	e := s.rt.engine
	cm := s.rt.model
	ror.BindFramed(e, s.fns.insert, func(node int, arg []byte) ([]byte, int64) {
		k, err := s.kbox.Decode(arg)
		if err != nil {
			panic(err)
		}
		cost := cm.LocalOpNS + cm.MemTime(len(arg))
		if s.rg != nil {
			isNew := s.rg.Mutate(StableHash64(arg), func(p int) bool {
				return s.dp.WrapMutation(p, arg, dataplane.PubValue, nil, func() bool {
					return s.parts[p].Insert(k, struct{}{})
				})
			})
			return boolReply(isNew), cost
		}
		p := s.byNode[node]
		// A set element's mirror entry is presence itself: PubValue with an
		// empty value publishes "k is a member" to one-sided readers.
		apply := func() bool {
			return s.dp.WrapMutation(p, arg, dataplane.PubValue, nil, func() bool {
				return s.parts[p].Insert(k, struct{}{})
			})
		}
		if s.repl == nil {
			return boolReply(apply()), cost
		}
		isNew, fcost, rerr := s.repl.mutate(p, replPut, arg, nil, apply)
		return mutReply(isNew, rerr), cost + fcost
	})
	ror.BindFramed(e, s.fns.find, func(node int, arg []byte) ([]byte, int64) {
		k, err := s.kbox.Decode(arg)
		if err != nil {
			panic(err)
		}
		serve := func(p int) bool {
			if s.dp != nil {
				_, ok := s.dp.GrantRead(p, arg, func() ([]byte, bool) {
					return nil, s.parts[p].Contains(k)
				})
				return ok
			}
			return s.parts[p].Contains(k)
		}
		if s.rg != nil {
			var ok bool
			s.rg.Read(StableHash64(arg), func(p int) { ok = serve(p) })
			return boolReply(ok), cm.LocalOpNS
		}
		p := s.byNode[node]
		if s.repl != nil && s.repl.isDead(p) {
			// Crashed, awaiting repair: the wiped primary must not serve
			// reads. The marker sends the client to a replica.
			return deadReply(), cm.LocalOpNS
		}
		return boolReply(serve(p)), cm.LocalOpNS
	})
	ror.BindFramed(e, s.fns.erase, func(node int, arg []byte) ([]byte, int64) {
		k, err := s.kbox.Decode(arg)
		if err != nil {
			panic(err)
		}
		if s.rg != nil {
			ok := s.rg.Mutate(StableHash64(arg), func(p int) bool {
				return s.dp.WrapMutation(p, arg, dataplane.PubClear, nil, func() bool {
					return s.parts[p].Delete(k)
				})
			})
			return boolReply(ok), cm.LocalOpNS
		}
		p := s.byNode[node]
		apply := func() bool {
			return s.dp.WrapMutation(p, arg, dataplane.PubClear, nil, func() bool {
				return s.parts[p].Delete(k)
			})
		}
		if s.repl == nil {
			return boolReply(apply()), cm.LocalOpNS
		}
		ok, fcost, rerr := s.repl.mutate(p, replDel, arg, nil, apply)
		return mutReply(ok, rerr), cm.LocalOpNS + fcost
	})
	ror.BindFramed(e, s.fns.resize, func(node int, arg []byte) ([]byte, int64) {
		p := s.byNode[node]
		if len(arg) == 16 {
			// Vshard-routed containers address the partition explicitly.
			p = int(binary.LittleEndian.Uint64(arg[8:]))
		}
		n := s.parts[p].Len()
		s.parts[p].Reserve(int(binary.LittleEndian.Uint64(arg[:8])))
		return replyTrue, int64(n) * 2 * cm.LocalOpNS
	})
	e.Bind(s.fns.size, func(node int, arg []byte) ([]byte, int64) {
		if s.rg != nil {
			total := 0
			for p, n := range s.servers {
				if n == node {
					total += s.parts[p].Len()
				}
			}
			var out [8]byte
			binary.LittleEndian.PutUint64(out[:], uint64(total))
			return out[:], cm.LocalOpNS
		}
		p := s.byNode[node]
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], uint64(s.parts[p].Len()))
		return out[:], cm.LocalOpNS
	})
}

// Insert adds k, returning true when it was not already present.
func (s *UnorderedSet[K]) Insert(r *cluster.Rank, k K) (bool, error) {
	var kbuf [keyBuf]byte
	p, kb, err := s.partitionOnto(kbuf[:], k)
	if err != nil {
		return false, err
	}
	node := s.servers[p]
	if s.opt.hybrid && node == r.Node() {
		if s.rg != nil {
			isNew := s.rg.Mutate(StableHash64(kb), func(p int) bool {
				return s.dp.WrapMutation(p, kb, dataplane.PubValue, nil, func() bool {
					return s.parts[p].Insert(k, struct{}{})
				})
			})
			s.rt.localCharge(r, len(kb), 2, "uset", s.name, "insert")
			return isNew, nil
		}
		if s.repl != nil {
			return s.mutateLocal(r, p, replPut, kb, "insert", func() bool {
				return s.dp.WrapMutation(p, kb, dataplane.PubValue, nil, func() bool {
					return s.parts[p].Insert(k, struct{}{})
				})
			})
		}
		isNew := s.dp.WrapMutation(p, kb, dataplane.PubValue, nil, func() bool {
			return s.parts[p].Insert(k, struct{}{})
		})
		s.rt.localCharge(r, len(kb), 2, "uset", s.name, "insert")
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
func (s *UnorderedSet[K]) mutateLocal(r *cluster.Rank, p int, verb byte, kb []byte, op string, apply func() bool) (bool, error) {
	res, fcost, rerr := s.repl.mutate(p, verb, kb, nil, apply)
	s.rt.localCharge(r, len(kb), 2, "uset", s.name, op)
	r.Clock().Advance(fcost)
	return res, rerr
}

// CrashNode simulates process death of node for fault-injection drivers:
// its primary partition and any replica copies it holds are wiped.
func (s *UnorderedSet[K]) CrashNode(node int) {
	if s.repl != nil {
		s.repl.CrashNode(node)
		s.fence(node)
		return
	}
	if s.rg != nil {
		// Vshard placement may host several partitions on one node; wipe
		// and fence each of them.
		for p, n := range s.servers {
			if n == node {
				wipePart[K, struct{}](s.parts[p])
				if s.dp != nil {
					s.dp.Fence(p)
				}
			}
		}
		return
	}
	if p, ok := s.byNode[node]; ok {
		wipePart[K, struct{}](s.parts[p])
	}
	s.fence(node)
}

// Resharder returns the live-resharding driver for this set; the error
// wraps ErrResharding when the set was built without WithVirtualNodes.
func (s *UnorderedSet[K]) Resharder() (*Resharder, error) {
	if s.rg == nil {
		return nil, fmt.Errorf("hcl: %s: built without virtual nodes: %w", s.name, ErrResharding)
	}
	return newResharder(s.rg, s.mover()), nil
}

// mover adapts the set's partitions to the coordinator's migration hooks
// (see UnorderedMap.mover for the locking contract).
func (s *UnorderedSet[K]) mover() reshard.Mover {
	var buf []K
	inShard := func(v int, k K) bool {
		kb, err := s.kbox.Encode(k)
		if err != nil {
			return false
		}
		return s.rg.VShardOf(StableHash64(kb)) == v
	}
	return reshard.Mover{
		Collect: func(v, from int) int {
			buf = buf[:0]
			s.parts[from].Range(func(k K, _ struct{}) bool {
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
				// Membership is re-checked: an element erased since
				// Collect must not be resurrected.
				if s.parts[from].Contains(k) {
					s.parts[to].Insert(k, struct{}{})
					n++
				}
			}
			return n
		},
		Drain: func(v, from int) int {
			var doomed []K
			s.parts[from].Range(func(k K, _ struct{}) bool {
				if inShard(v, k) {
					doomed = append(doomed, k)
				}
				return true
			})
			for _, k := range doomed {
				s.parts[from].Delete(k)
			}
			return len(doomed)
		},
		Fence: func(p int) {
			if s.dp != nil {
				s.dp.Fence(p)
			}
		},
	}
}

// fence bumps the dataplane lease epoch of node's partition and wipes its
// mirror, so no pre-crash lease or slot can serve another read.
func (s *UnorderedSet[K]) fence(node int) {
	if s.dp == nil {
		return
	}
	if p, ok := s.byNode[node]; ok {
		s.dp.Fence(p)
	}
}

// RepairNode anti-entropy-repairs node's partition from a live replica
// before it rejoins; no-op without replication.
func (s *UnorderedSet[K]) RepairNode(node int) error {
	if s.repl == nil {
		return nil
	}
	err := s.repl.RepairNode(node)
	s.fence(node)
	return err
}

// FlushReplication drains queued asynchronous forwards (ReplAsync mode).
func (s *UnorderedSet[K]) FlushReplication() {
	if s.repl != nil {
		s.repl.Flush()
	}
}

// InsertAsync is the future-returning form of Insert.
func (s *UnorderedSet[K]) InsertAsync(r *cluster.Rank, k K) *Future[bool] {
	var kbuf [keyBuf]byte
	p, kb, err := s.partitionOnto(kbuf[:], k)
	if err != nil {
		return immediateFuture(false, err)
	}
	node := s.servers[p]
	if s.opt.hybrid && node == r.Node() {
		if s.rg != nil {
			isNew := s.rg.Mutate(StableHash64(kb), func(p int) bool {
				return s.dp.WrapMutation(p, kb, dataplane.PubValue, nil, func() bool {
					return s.parts[p].Insert(k, struct{}{})
				})
			})
			s.rt.localCharge(r, len(kb), 2, "uset", s.name, "insert")
			return immediateFuture(isNew, nil)
		}
		if s.repl != nil {
			isNew, rerr := s.mutateLocal(r, p, replPut, kb, "insert", func() bool {
				return s.dp.WrapMutation(p, kb, dataplane.PubValue, nil, func() bool {
					return s.parts[p].Insert(k, struct{}{})
				})
			})
			return immediateFuture(isNew, rerr)
		}
		isNew := s.dp.WrapMutation(p, kb, dataplane.PubValue, nil, func() bool {
			return s.parts[p].Insert(k, struct{}{})
		})
		s.rt.localCharge(r, len(kb), 2, "uset", s.name, "insert")
		return immediateFuture(isNew, nil)
	}
	raw := s.rt.engine.InvokeAsync(r, node, s.fns.insert, kb)
	if s.repl != nil {
		return remoteFuture(raw, s.repl.decodeMutResp)
	}
	return remoteFuture(raw, decodeBool)
}

// Find reports whether k is in the set.
func (s *UnorderedSet[K]) Find(r *cluster.Rank, k K) (bool, error) {
	var kbuf [keyBuf]byte
	p, kb, err := s.partitionOnto(kbuf[:], k)
	if err != nil {
		return false, err
	}
	node := s.servers[p]
	// Lease cache: membership (or absence) cached until a mutation on k
	// revokes it — the mutation cannot ack while the lease is live.
	if _, ok, hit := s.dp.CacheGet(p, kb, r.Clock().Now()); hit {
		s.rt.localCharge(r, len(kb), 1, "uset", s.name, "find")
		return ok, nil
	}
	if s.opt.hybrid && node == r.Node() && (s.repl == nil || !s.repl.isDead(p)) {
		var ok bool
		if s.rg != nil {
			// Resolve + read under the vshard read-lock, so a concurrent
			// flip's drain cannot remove the key mid-read.
			s.rg.Read(StableHash64(kb), func(p int) { ok = s.parts[p].Contains(k) })
		} else {
			ok = s.parts[p].Contains(k)
		}
		s.rt.localCharge(r, len(kb), 2, "uset", s.name, "find")
		return ok, nil
	}
	// Per-op route decision: a validated mirror slot proves membership with
	// one one-sided read; misses (including genuine absence, which the
	// mirror cannot represent) fall through to the RoR invocation.
	if _, ok := dpRouteRead(s.dp, r, p, kb); ok {
		return true, nil
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
func (s *UnorderedSet[K]) Erase(r *cluster.Rank, k K) (bool, error) {
	var kbuf [keyBuf]byte
	p, kb, err := s.partitionOnto(kbuf[:], k)
	if err != nil {
		return false, err
	}
	node := s.servers[p]
	if s.opt.hybrid && node == r.Node() {
		if s.rg != nil {
			ok := s.rg.Mutate(StableHash64(kb), func(p int) bool {
				return s.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
					return s.parts[p].Delete(k)
				})
			})
			s.rt.localCharge(r, len(kb), 2, "uset", s.name, "erase")
			return ok, nil
		}
		if s.repl != nil {
			return s.mutateLocal(r, p, replDel, kb, "erase", func() bool {
				return s.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
					return s.parts[p].Delete(k)
				})
			})
		}
		ok := s.dp.WrapMutation(p, kb, dataplane.PubClear, nil, func() bool {
			return s.parts[p].Delete(k)
		})
		s.rt.localCharge(r, len(kb), 2, "uset", s.name, "erase")
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

// Resize grows one partition (paper Table I).
func (s *UnorderedSet[K]) Resize(r *cluster.Rank, partitionID, newSize int) (bool, error) {
	if partitionID < 0 || partitionID >= len(s.parts) {
		return false, fmt.Errorf("hcl: %s: partition %d out of range", s.name, partitionID)
	}
	node := s.servers[partitionID]
	if s.opt.hybrid && node == r.Node() {
		n := s.parts[partitionID].Len()
		s.parts[partitionID].Reserve(newSize)
		s.rt.localCharge(r, 0, 2*n+1, "uset", s.name, "resize")
		return true, nil
	}
	var arg [16]byte
	binary.LittleEndian.PutUint64(arg[:8], uint64(newSize))
	wire := arg[:8]
	if s.rg != nil {
		binary.LittleEndian.PutUint64(arg[8:], uint64(partitionID))
		wire = arg[:16]
	}
	resp, err := s.rt.engine.Invoke(r, node, s.fns.resize, wire)
	if err != nil {
		return false, err
	}
	return decodeBool(resp)
}

// Size reports the total element count across all partitions.
func (s *UnorderedSet[K]) Size(r *cluster.Rank) (int, error) {
	total := 0
	if s.rg != nil {
		// One invocation per distinct node; the handler sums every
		// partition its node hosts (see UnorderedMap.Size).
		seen := make(map[int]bool, len(s.servers))
		for _, node := range s.servers {
			if seen[node] {
				continue
			}
			seen[node] = true
			if s.opt.hybrid && node == r.Node() {
				for p, n := range s.servers {
					if n == node {
						total += s.parts[p].Len()
					}
				}
				s.rt.localCharge(r, 0, 1, "uset", s.name, "size")
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
	for p, node := range s.servers {
		if s.opt.hybrid && node == r.Node() {
			total += s.parts[p].Len()
			s.rt.localCharge(r, 0, 1, "uset", s.name, "size")
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
