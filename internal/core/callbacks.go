package core

import (
	"fmt"

	"hcl/internal/cluster"
	"hcl/internal/databox"
	"hcl/internal/ror"
)

// Callback support (paper Section III-C3): users register named functions
// that the server executes after the main data-structure operation, within
// the same invocation. Each callback receives the previous stage's
// response bytes and returns the next; chaining several aggregates
// multiple data-local operations into one network call.

// Callback is a user function run on the node that executed the main
// operation. It receives the previous stage's response payload.
type Callback func(node int, prev []byte) ([]byte, error)

// BindCallback registers fn under name for use in invocation chains. Like
// container construction, registration must happen symmetrically on every
// process.
func (rt *Runtime) BindCallback(name string, fn Callback) {
	cm := rt.model
	rt.engine.Bind("cb."+name, func(node int, arg []byte) ([]byte, int64) {
		out, err := fn(node, arg)
		if err != nil {
			panic(fmt.Sprintf("hcl: callback %s: %v", name, err))
		}
		return out, cm.LocalOpNS
	})
}

// InsertChained inserts (k, v) and then runs the named callbacks on the
// owning node — all within a single invocation. The final callback's
// response is returned raw. The hybrid shortcut does not apply: chains
// always execute through the invocation path so callbacks observe the
// same environment everywhere.
func (m *UnorderedMap[K, V]) InsertChained(r *cluster.Rank, k K, v V, callbacks ...string) ([]byte, error) {
	p, kb, err := m.partitionOf(k)
	if err != nil {
		return nil, err
	}
	vb, err := m.vbox.Encode(v)
	if err != nil {
		return nil, err
	}
	chain := make([]string, 0, len(callbacks)+1)
	chain = append(chain, m.fns.insert)
	for _, cb := range callbacks {
		chain = append(chain, "cb."+cb)
	}
	resp, err := m.rt.engine.InvokeChain(r, m.servers[p], chain, databox.EncodePair(kb, vb))
	if err != nil {
		return nil, err
	}
	// Insert alone answers with a shared reply; the caller owns its copy.
	return append([]byte(nil), resp...), nil
}

// InsertChainedAsync is the future-returning form of InsertChained.
func (m *UnorderedMap[K, V]) InsertChainedAsync(r *cluster.Rank, k K, v V, callbacks ...string) *Future[[]byte] {
	p, kb, err := m.partitionOf(k)
	if err != nil {
		return immediateFuture[[]byte](nil, err)
	}
	vb, err := m.vbox.Encode(v)
	if err != nil {
		return immediateFuture[[]byte](nil, err)
	}
	chain := make([]string, 0, len(callbacks)+1)
	chain = append(chain, m.fns.insert)
	for _, cb := range callbacks {
		chain = append(chain, "cb."+cb)
	}
	raw := m.rt.engine.InvokeChainAsync(r, m.servers[p], chain, databox.EncodePair(kb, vb))
	return remoteFuture(raw, func(b []byte) ([]byte, error) { return append([]byte(nil), b...), nil })
}

var _ = ror.ErrUnbound // keep the ror import for the doc link above
