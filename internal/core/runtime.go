// Package core implements the Hermes Container Library proper: distributed
// STL-like containers (unordered and ordered maps and sets, FIFO and
// priority queues) layered over the RPC-over-RDMA engine, the DataBox
// serialization abstraction, and the node-local concurrent containers.
//
// Every container follows the paper's architecture (Section III-D):
//
//   - data is partitioned over server nodes; partitions live in globally
//     visible memory and are manipulated only by invoking functions on the
//     owning node (procedural paradigm), never by client-side remote CAS;
//   - the hybrid access model (Section III-C5) lets a rank co-located with
//     a partition bypass RPC entirely and touch the partition through
//     shared memory;
//   - every remote operation costs exactly one invocation (Table I);
//   - operations come in synchronous and asynchronous (future) forms;
//   - optional per-partition replication and mmap-backed persistence.
package core

import (
	"fmt"
	"sync/atomic"

	"hcl/internal/cluster"
	"hcl/internal/fabric"
	"hcl/internal/metrics"
	"hcl/internal/obs"
	"hcl/internal/ror"
	"hcl/internal/trace"
)

// Runtime bundles the world, the RoR engine, and the accounting hooks a
// container needs. One Runtime serves any number of containers.
type Runtime struct {
	world   *cluster.World
	engine  *ror.Engine
	acct    fabric.Accountant
	model   fabric.CostModel
	nameSeq atomic.Int64
}

// NewRuntime builds a runtime over the world's provider.
func NewRuntime(w *cluster.World) *Runtime {
	prov := w.Provider()
	rt := &Runtime{
		world:  w,
		engine: ror.NewEngine(prov),
		acct:   fabric.AccountantOf(prov),
		model:  fabric.ModelOf(prov),
	}
	if col := collectorOf(prov); col != nil {
		rt.engine.SetCollector(col)
	}
	if tr := tracerOf(prov); tr != nil {
		rt.engine.SetTracer(tr)
	}
	return rt
}

// NewRuntimeWithEngine builds a runtime sharing an existing engine (used
// when several runtimes must coexist on one provider).
func NewRuntimeWithEngine(w *cluster.World, e *ror.Engine) *Runtime {
	prov := w.Provider()
	if e.Collector() == nil {
		if col := collectorOf(prov); col != nil {
			e.SetCollector(col)
		}
	}
	if e.Tracer() == nil {
		if tr := tracerOf(prov); tr != nil {
			e.SetTracer(tr)
		}
	}
	return &Runtime{
		world:  w,
		engine: e,
		acct:   fabric.AccountantOf(prov),
		model:  fabric.ModelOf(prov),
	}
}

// collectorOf finds the metrics collector attached to a provider,
// unwrapping fault-injection (and any future) decorators, so engine- and
// dataplane-level series land in the same collector as fabric series
// without every caller having to wire SetCollector by hand.
func collectorOf(prov fabric.Provider) *metrics.Collector {
	for prov != nil {
		if c, ok := prov.(interface{ Collector() *metrics.Collector }); ok {
			if col := c.Collector(); col != nil {
				return col
			}
		}
		inner, ok := prov.(interface{ Inner() fabric.Provider })
		if !ok {
			return nil
		}
		prov = inner.Inner()
	}
	return nil
}

// tracerOf is collectorOf for span tracers: it finds the tracer attached
// to a provider through the same decorator-unwrapping walk, so engine
// spans land in the same ring as transport spans automatically.
func tracerOf(prov fabric.Provider) *trace.Tracer {
	for prov != nil {
		if t, ok := prov.(interface{ Tracer() *trace.Tracer }); ok {
			if tr := t.Tracer(); tr != nil {
				return tr
			}
		}
		inner, ok := prov.(interface{ Inner() fabric.Provider })
		if !ok {
			return nil
		}
		prov = inner.Inner()
	}
	return nil
}

// EnableClusterObs binds the cluster metrics-scrape verb (obs.ScrapeFn)
// on the runtime's engine — serving this process's collector and window
// ring — and returns a scraper originating at node. Every runtime in the
// cluster must call it (the verb must be bound on every process) for a
// scrape to cover all nodes; see docs/OBSERVABILITY.md.
func (rt *Runtime) EnableClusterObs(node int, win *metrics.Windows) *obs.Cluster {
	col := rt.engine.Collector()
	if col == nil && win != nil {
		col = win.Collector()
	}
	return obs.EnableCluster(rt.engine, node, col, win)
}

// World returns the runtime's world.
func (rt *Runtime) World() *cluster.World { return rt.world }

// Engine returns the runtime's RoR engine.
func (rt *Runtime) Engine() *ror.Engine { return rt.engine }

// CostModel returns the virtual-time model in effect.
func (rt *Runtime) CostModel() fabric.CostModel { return rt.model }

// SetOpOptions installs default per-operation fabric options (deadline,
// retry budget) for every container operation issued through this
// runtime's engine. Per-call options from Rank.WithDeadline /
// Rank.WithOptions override them. With options in force, a dead or
// partitioned peer surfaces as fabric.ErrTimeout / fabric.ErrNodeDown
// from the container API (and from futures' Wait) instead of a hang.
func (rt *Runtime) SetOpOptions(o fabric.Options) { rt.engine.SetDefaultOptions(o) }

// autoName generates a unique container name when the caller passes "".
func (rt *Runtime) autoName(kind string) string {
	return fmt.Sprintf("%s#%d", kind, rt.nameSeq.Add(1))
}

// localCharge bills a hybrid-path access: ops short local operations plus
// bytes through node memory. When the engine has a collector, the charged
// virtual time is also observed under "local.<kind>.<name>.<op>", the
// hybrid-path mirror of the remote path's "rpc.<fn>" histograms — the label
// is only built when someone is listening, so the uninstrumented hybrid
// path stays allocation-free.
func (rt *Runtime) localCharge(r *cluster.Rank, bytes, ops int, kind, name, op string) {
	clk := r.Clock()
	col := rt.engine.Collector()
	if col == nil {
		rt.acct.LocalAccess(clk, r.Node(), bytes, ops)
		return
	}
	t0 := clk.Now()
	rt.acct.LocalAccess(clk, r.Node(), bytes, ops)
	col.Observe("local."+kind+"."+name+"."+op, clk.Now()-t0)
}

// StableHash64 is the level-one hash of the paper's two-level scheme: a
// process-independent FNV-1a over the DataBox encoding of the key, so
// every process (even across OS processes on the TCP provider) agrees on
// the partition.
func StableHash64(b []byte) uint64 { return ror.FNV1a(b) }
