package core

import (
	"encoding/binary"
	"fmt"

	"hcl/internal/cluster"
	"hcl/internal/containers"
	"hcl/internal/databox"
	"hcl/internal/ror"
)

// Queue is HCL::queue — a distributed MWMR FIFO queue. Queues are
// single-partitioned (splitting would break the ordering property, paper
// Section III-D3) but globally visible: the partition lives on one host
// node and every rank pushes/pops through one invocation, or directly
// through shared memory when co-located.
type Queue[T any] struct {
	rt   *Runtime
	fns  queueVerbs
	name string
	opt  options
	host int
	q    *containers.MSQueue[T]
	box  *databox.Box[T]
}

// NewQueue constructs a distributed FIFO queue hosted on the first node
// of WithServers (default node 0).
func NewQueue[T any](rt *Runtime, name string, opts ...Option) (*Queue[T], error) {
	o := buildOptions(opts)
	if name == "" {
		name = rt.autoName("queue")
	}
	if o.persistDir != "" {
		return nil, fmt.Errorf("hcl: %s: persistence is not supported for queues", name)
	}
	if o.replicas > 0 {
		return nil, fmt.Errorf("hcl: %s: replication is not supported for queues", name)
	}
	if o.vnodes > 0 {
		return nil, fmt.Errorf("hcl: %s: virtual nodes on a queue: %w", name, ErrResharding)
	}
	host := 0
	if len(o.servers) > 0 {
		host = o.servers[0]
	}
	if host < 0 || host >= rt.world.NumNodes() {
		return nil, fmt.Errorf("hcl: %s: host node %d out of range", name, host)
	}
	q := &Queue[T]{
		rt:   rt,
		fns:  newQueueVerbs("queue", name),
		name: name,
		opt:  o,
		host: host,
		q:    containers.NewMSQueue[T](),
		box:  databox.New[T](databox.WithCodec(o.codec)),
	}
	q.bind()
	return q, nil
}

// Name returns the container's global name.
func (q *Queue[T]) Name() string { return q.name }

// Host reports the node hosting the queue partition.
func (q *Queue[T]) Host() int { return q.host }

func (q *Queue[T]) bind() {
	e := q.rt.engine
	cm := q.rt.model
	ror.BindFramed(e, q.fns.push, func(node int, arg []byte) ([]byte, int64) {
		v, err := q.box.Decode(arg)
		if err != nil {
			panic(err)
		}
		q.q.Push(v)
		// Table I: push = F + L + W.
		return replyTrue, cm.LocalOpNS + cm.MemTime(len(arg))
	})
	ror.BindFramed(e, q.fns.pop, func(node int, arg []byte) ([]byte, int64) {
		v, ok := q.q.Pop()
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
			q.q.Push(v)
		}
		// Table I: vector push = F + L + E*W.
		return replyTrue, cm.LocalOpNS + int64(len(items))*cm.LocalOpNS + cm.MemTime(len(arg))
	})
	ror.BindFramed(e, q.fns.popN, func(node int, arg []byte) ([]byte, int64) {
		want := int(binary.LittleEndian.Uint64(arg))
		var out []T
		for i := 0; i < want; i++ {
			v, ok := q.q.Pop()
			if !ok {
				break
			}
			out = append(out, v)
		}
		resp, err := appendList(ror.Reply(listCap(q.box, len(out))), q.box, out)
		if err != nil {
			panic(err)
		}
		// Table I: vector pop = F + L + E*R.
		return resp, cm.LocalOpNS + int64(len(out))*cm.LocalOpNS + cm.MemTime(len(resp)-1)
	})
	e.Bind(q.fns.size, func(node int, arg []byte) ([]byte, int64) {
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], uint64(q.q.Len()))
		return out[:], cm.LocalOpNS
	})
}

func (q *Queue[T]) isLocal(r *cluster.Rank) bool {
	return q.opt.hybrid && q.host == r.Node()
}

// Push appends v to the back of the queue.
func (q *Queue[T]) Push(r *cluster.Rank, v T) error {
	if q.isLocal(r) {
		q.q.Push(v)
		q.rt.localCharge(r, payloadSize(q.box, v), 2, "queue", q.name, "push")
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
func (q *Queue[T]) PushAsync(r *cluster.Rank, v T) *Future[bool] {
	if q.isLocal(r) {
		q.q.Push(v)
		q.rt.localCharge(r, payloadSize(q.box, v), 2, "queue", q.name, "push")
		return immediateFuture(true, nil)
	}
	vb, err := q.box.Encode(v)
	if err != nil {
		return immediateFuture(false, err)
	}
	raw := q.rt.engine.InvokeAsync(r, q.host, q.fns.push, vb)
	return remoteFuture(raw, decodeBool)
}

// Pop removes and returns the front element; ok is false when empty.
func (q *Queue[T]) Pop(r *cluster.Rank) (T, bool, error) {
	var zero T
	if q.isLocal(r) {
		v, ok := q.q.Pop()
		q.rt.localCharge(r, payloadSize(q.box, v), 2, "queue", q.name, "pop")
		return v, ok, nil
	}
	resp, err := q.rt.engine.Invoke(r, q.host, q.fns.pop, nil)
	if err != nil {
		return zero, false, err
	}
	return q.decodePop(resp)
}

func (q *Queue[T]) decodePop(resp []byte) (T, bool, error) {
	var zero T
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

// PushMulti appends the elements in order with one invocation (Table I's
// vector push).
func (q *Queue[T]) PushMulti(r *cluster.Rank, vals []T) error {
	if len(vals) == 0 {
		return nil
	}
	if q.isLocal(r) {
		total := 0
		for _, v := range vals {
			q.q.Push(v)
			total += payloadSize(q.box, v)
		}
		q.rt.localCharge(r, total, 1+len(vals), "queue", q.name, "pushN")
		return nil
	}
	arg, err := appendList(ror.ArgBuf(listCap(q.box, len(vals))), q.box, vals)
	if err != nil {
		return err
	}
	_, err = ror.InvokeInPlace(q.rt.engine, r, q.host, q.fns.pushN, arg)
	return err
}

// PopMulti removes up to n front elements with one invocation.
func (q *Queue[T]) PopMulti(r *cluster.Rank, n int) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if q.isLocal(r) {
		out := make([]T, 0, n)
		total := 0
		for i := 0; i < n; i++ {
			v, ok := q.q.Pop()
			if !ok {
				break
			}
			out = append(out, v)
			total += payloadSize(q.box, v)
		}
		q.rt.localCharge(r, total, 1+len(out), "queue", q.name, "popN")
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

// Size reports the queue length.
func (q *Queue[T]) Size(r *cluster.Rank) (int, error) {
	if q.isLocal(r) {
		q.rt.localCharge(r, 0, 1, "queue", q.name, "size")
		return q.q.Len(), nil
	}
	resp, err := q.rt.engine.Invoke(r, q.host, q.fns.size, nil)
	if err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint64(resp)), nil
}
