package core

import (
	"hcl/internal/databox"
	"hcl/internal/dataplane"
	"hcl/internal/memory"
)

// OrderedEngineKind selects the engine behind ordered partitions.
type OrderedEngineKind int

const (
	// EngineSkipList is the default lock-free skip list.
	EngineSkipList OrderedEngineKind = iota
	// EngineRBTree is the latched red-black tree (ablation).
	EngineRBTree
)

// PQEngineKind selects the engine behind priority-queue partitions.
type PQEngineKind int

const (
	// PQSkipList is the default lock-free skip-list priority queue.
	PQSkipList PQEngineKind = iota
	// PQHeap is the mutex binary heap (ablation).
	PQHeap
)

type options struct {
	servers    []int
	codec      databox.Codec
	hybrid     bool
	ordered    OrderedEngineKind
	pq         PQEngineKind
	replicas   int
	replMode   ReplMode
	persistDir string
	syncMode   memory.SyncMode
	initialCap int
	dataplane  dataplane.Config
	vnodes     int
	hotFactor  float64
	hotMinOps  int
}

func defaultOptions() options {
	return options{
		hybrid:     true,
		codec:      databox.Binc(),
		initialCap: 128, // the paper's default bucket count
	}
}

// Option configures a container at construction time.
type Option func(*options)

// WithServers places the container's partitions on the given nodes. The
// default is every node in the world (multi-partition structures) or node
// 0 (single-partition structures).
func WithServers(nodes []int) Option {
	return func(o *options) { o.servers = nodes }
}

// WithCodec selects the DataBox backend for the container's element types.
func WithCodec(c databox.Codec) Option {
	return func(o *options) { o.codec = c }
}

// WithHybrid enables or disables the hybrid data access model. Disabling
// it forces even node-local accesses through the RPC path — only the
// ablation benches do this.
func WithHybrid(enabled bool) Option {
	return func(o *options) { o.hybrid = enabled }
}

// WithOrderedEngine selects the ordered-partition engine.
func WithOrderedEngine(k OrderedEngineKind) Option {
	return func(o *options) { o.ordered = k }
}

// WithPQEngine selects the priority-queue engine.
func WithPQEngine(k PQEngineKind) Option {
	return func(o *options) { o.pq = k }
}

// WithReplicas enables server-side replication onto n additional
// partition holders (paper Section III-A4). mode selects the write
// quorum: QuorumAll (acked writes survive a primary kill — the mode the
// chaos harness gates on), QuorumOne (availability over consistency),
// or ReplAsync (bounded, error-counted fire-and-forget). See
// docs/REPLICATION.md.
func WithReplicas(n int, mode ReplMode) Option {
	return func(o *options) {
		o.replicas = n
		o.replMode = mode
	}
}

// WithPersistence backs each partition with an append journal in dir,
// memory-mapped and flushed per mode — the DataBox persistency model.
func WithPersistence(dir string, mode memory.SyncMode) Option {
	return func(o *options) {
		o.persistDir = dir
		o.syncMode = mode
	}
}

// WithInitialCapacity overrides the default initial bucket count.
func WithInitialCapacity(n int) Option {
	return func(o *options) { o.initialCap = n }
}

// WithDataplane selects the container's dataplane mode: ModeAuto routes
// each read adaptively between the one-sided mirror and RoR and grants
// read leases; ModeOneSided and ModeRoR pin the router for A/B baselines;
// ModeOff (the default) disables the dataplane entirely. See
// docs/DATAPLANE.md for the decision model.
func WithDataplane(m dataplane.Mode) Option {
	return func(o *options) { o.dataplane.Mode = m }
}

// WithDataplaneConfig replaces the container's full dataplane
// configuration (mode, mirror geometry, lease TTL, router thresholds).
func WithDataplaneConfig(c dataplane.Config) Option {
	return func(o *options) { o.dataplane = c }
}

// WithVirtualNodes routes the container's keys through v virtual shards
// (rounded up to a power of two) instead of hashing directly onto
// partitions, enabling live resharding: Split/Merge move vshard ownership
// between partitions while traffic keeps flowing, and adding a partition
// moves ~1/N of the keys. Unordered containers only; incompatible with
// replication and persistence (those layers pin keys to the static
// partition hash). See docs/RESHARDING.md.
func WithVirtualNodes(v int) Option {
	return func(o *options) { o.vnodes = v }
}

// WithHotSplit tunes the hot-shard auto-split policy behind
// Resharder.TickAutoSplit: a partition is split when its share of the op
// window exceeds factor times the fair share (factor must be > 1; the
// default is 2.0), and no decision is taken before the window holds
// minOps operations (default 512). Only meaningful together with
// WithVirtualNodes. See docs/RESHARDING.md.
func WithHotSplit(factor float64, minOps int) Option {
	return func(o *options) {
		o.hotFactor = factor
		o.hotMinOps = minOps
	}
}

func buildOptions(opts []Option) options {
	o := defaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// keyedVerbs holds a keyed container's RPC function names,
// "<kind>.<name>.<verb>", built once at construction so no call
// concatenates a name.
type keyedVerbs struct {
	prefix                                         string // "<kind>.<name>."
	insert, merge, find, erase, resize, size, scan string
}

func newKeyedVerbs(kind, name string) keyedVerbs {
	p := kind + "." + name + "."
	return keyedVerbs{
		prefix: p,
		insert: p + "insert", merge: p + "merge", find: p + "find",
		erase: p + "erase", resize: p + "resize", size: p + "size", scan: p + "scan",
	}
}

// queueVerbs is keyedVerbs for the queues.
type queueVerbs struct {
	push, pop, pushN, popN, size string
}

func newQueueVerbs(kind, name string) queueVerbs {
	p := kind + "." + name + "."
	return queueVerbs{push: p + "push", pop: p + "pop", pushN: p + "pushN", popN: p + "popN", size: p + "size"}
}
