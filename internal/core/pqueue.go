package core

import (
	"encoding/binary"
	"fmt"

	"hcl/internal/cluster"
	"hcl/internal/containers"
	"hcl/internal/databox"
	"hcl/internal/ror"
)

// PriorityQueue is HCL::priority_queue — a distributed MWMR priority
// queue, single-partitioned like the FIFO queue. The default engine is
// the lock-free skip-list priority queue; pushes cost O(log n) at the
// host, pops take the minimum (paper Section III-D3B).
type PriorityQueue[T any] struct {
	rt   *Runtime
	fns  queueVerbs
	name string
	opt  options
	host int
	pq   containers.PQ[T]
	box  *databox.Box[T]
}

// NewPriorityQueue constructs a distributed priority queue ordered by
// less (min first), hosted on the first node of WithServers (default 0).
func NewPriorityQueue[T any](rt *Runtime, name string, less func(a, b T) bool, opts ...Option) (*PriorityQueue[T], error) {
	o := buildOptions(opts)
	if name == "" {
		name = rt.autoName("priority_queue")
	}
	if less == nil {
		return nil, fmt.Errorf("hcl: %s: nil comparator", name)
	}
	if o.persistDir != "" {
		return nil, fmt.Errorf("hcl: %s: persistence is not supported for priority queues", name)
	}
	if o.replicas > 0 {
		return nil, fmt.Errorf("hcl: %s: replication is not supported for priority queues", name)
	}
	if o.vnodes > 0 {
		return nil, fmt.Errorf("hcl: %s: virtual nodes on a priority queue: %w", name, ErrResharding)
	}
	host := 0
	if len(o.servers) > 0 {
		host = o.servers[0]
	}
	if host < 0 || host >= rt.world.NumNodes() {
		return nil, fmt.Errorf("hcl: %s: host node %d out of range", name, host)
	}
	var engine containers.PQ[T]
	if o.pq == PQHeap {
		engine = containers.NewHeapPQ[T](less)
	} else {
		engine = containers.NewSkipPQ[T](less)
	}
	q := &PriorityQueue[T]{
		rt:   rt,
		fns:  newQueueVerbs("pq", name),
		name: name,
		opt:  o,
		host: host,
		pq:   engine,
		box:  databox.New[T](databox.WithCodec(o.codec)),
	}
	q.bind()
	return q, nil
}

// Name returns the container's global name.
func (q *PriorityQueue[T]) Name() string { return q.name }

// Host reports the node hosting the queue partition.
func (q *PriorityQueue[T]) Host() int { return q.host }

func (q *PriorityQueue[T]) bind() {
	e := q.rt.engine
	cm := q.rt.model
	ror.BindFramed(e, q.fns.push, func(node int, arg []byte) ([]byte, int64) {
		v, err := q.box.Decode(arg)
		if err != nil {
			panic(err)
		}
		q.pq.Push(v)
		// Table I: push = F + L*log(N) + W.
		return replyTrue, logCost(cm.TreeOpNS, q.pq.Len()) + cm.MemTime(len(arg))
	})
	ror.BindFramed(e, q.fns.pop, func(node int, arg []byte) ([]byte, int64) {
		v, ok := q.pq.PopMin()
		if !ok {
			return replyFalse, cm.LocalOpNS
		}
		out, err := foundReply(q.box, v)
		if err != nil {
			panic(err)
		}
		// Table I: pop = F + L + R.
		return out, cm.LocalOpNS + cm.MemTime(len(out)-2)
	})
	ror.BindFramed(e, q.fns.pushN, func(node int, arg []byte) ([]byte, int64) {
		items, err := databox.DecodeList(arg)
		if err != nil {
			panic(err)
		}
		for _, it := range items {
			v, err := q.box.Decode(it)
			if err != nil {
				panic(err)
			}
			q.pq.Push(v)
		}
		return replyTrue, int64(len(items))*logCost(cm.TreeOpNS, q.pq.Len()) + cm.MemTime(len(arg))
	})
	ror.BindFramed(e, q.fns.popN, func(node int, arg []byte) ([]byte, int64) {
		want := int(binary.LittleEndian.Uint64(arg))
		var out []T
		for i := 0; i < want; i++ {
			v, ok := q.pq.PopMin()
			if !ok {
				break
			}
			out = append(out, v)
		}
		resp, err := appendList(ror.Reply(listCap(q.box, len(out))), q.box, out)
		if err != nil {
			panic(err)
		}
		return resp, cm.LocalOpNS + int64(len(out))*cm.LocalOpNS + cm.MemTime(len(resp)-1)
	})
	e.Bind(q.fns.size, func(node int, arg []byte) ([]byte, int64) {
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], uint64(q.pq.Len()))
		return out[:], cm.LocalOpNS
	})
}

func (q *PriorityQueue[T]) isLocal(r *cluster.Rank) bool {
	return q.opt.hybrid && q.host == r.Node()
}

// Push inserts v.
func (q *PriorityQueue[T]) Push(r *cluster.Rank, v T) error {
	if q.isLocal(r) {
		q.pq.Push(v)
		q.rt.localCharge(r, payloadSize(q.box, v), 1+logSteps(q.pq.Len()), "pq", q.name, "push")
		return nil
	}
	vb, err := q.box.Encode(v)
	if err != nil {
		return err
	}
	_, err = q.rt.engine.Invoke(r, q.host, q.fns.push, vb)
	return err
}

// PushAsync is the future-returning form of Push.
func (q *PriorityQueue[T]) PushAsync(r *cluster.Rank, v T) *Future[bool] {
	if q.isLocal(r) {
		q.pq.Push(v)
		q.rt.localCharge(r, payloadSize(q.box, v), 1+logSteps(q.pq.Len()), "pq", q.name, "push")
		return immediateFuture(true, nil)
	}
	vb, err := q.box.Encode(v)
	if err != nil {
		return immediateFuture(false, err)
	}
	raw := q.rt.engine.InvokeAsync(r, q.host, q.fns.push, vb)
	return remoteFuture(raw, decodeBool)
}

// Pop removes and returns the minimum element; ok is false when empty.
func (q *PriorityQueue[T]) Pop(r *cluster.Rank) (T, bool, error) {
	var zero T
	if q.isLocal(r) {
		v, ok := q.pq.PopMin()
		q.rt.localCharge(r, payloadSize(q.box, v), 2, "pq", q.name, "pop")
		return v, ok, nil
	}
	resp, err := q.rt.engine.Invoke(r, q.host, q.fns.pop, nil)
	if err != nil {
		return zero, false, err
	}
	if len(resp) < 1 {
		return zero, false, fmt.Errorf("hcl: %s: empty pop response", q.name)
	}
	if resp[0] == 0 {
		return zero, false, nil
	}
	v, err := q.box.Decode(resp[1:])
	if err != nil {
		return zero, false, err
	}
	return v, true, nil
}

// PushMulti inserts the elements with one invocation.
func (q *PriorityQueue[T]) PushMulti(r *cluster.Rank, vals []T) error {
	if len(vals) == 0 {
		return nil
	}
	if q.isLocal(r) {
		total := 0
		for _, v := range vals {
			q.pq.Push(v)
			total += payloadSize(q.box, v)
		}
		q.rt.localCharge(r, total, len(vals)*logSteps(q.pq.Len()), "pq", q.name, "pushN")
		return nil
	}
	arg, err := appendList(ror.ArgBuf(listCap(q.box, len(vals))), q.box, vals)
	if err != nil {
		return err
	}
	_, err = ror.InvokeInPlace(q.rt.engine, r, q.host, q.fns.pushN, arg)
	return err
}

// PopMulti removes up to n minimum elements (ascending) in one invocation.
func (q *PriorityQueue[T]) PopMulti(r *cluster.Rank, n int) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if q.isLocal(r) {
		out := make([]T, 0, n)
		total := 0
		for i := 0; i < n; i++ {
			v, ok := q.pq.PopMin()
			if !ok {
				break
			}
			out = append(out, v)
			total += payloadSize(q.box, v)
		}
		q.rt.localCharge(r, total, 1+len(out), "pq", q.name, "popN")
		return out, nil
	}
	var arg [8]byte
	binary.LittleEndian.PutUint64(arg[:], uint64(n))
	resp, err := q.rt.engine.Invoke(r, q.host, q.fns.popN, arg[:])
	if err != nil {
		return nil, err
	}
	raw, err := databox.DecodeList(resp)
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, len(raw))
	for _, vb := range raw {
		v, err := q.box.Decode(vb)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Size reports the number of queued elements.
func (q *PriorityQueue[T]) Size(r *cluster.Rank) (int, error) {
	if q.isLocal(r) {
		q.rt.localCharge(r, 0, 1, "pq", q.name, "size")
		return q.pq.Len(), nil
	}
	resp, err := q.rt.engine.Invoke(r, q.host, q.fns.size, nil)
	if err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint64(resp)), nil
}
