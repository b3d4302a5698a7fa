package core

import (
	"strings"

	"hcl/internal/cluster"
	"hcl/internal/dataplane"
)

// newPlane builds a container's dataplane (router + leases + optional slot
// mirror) from its options, or nil when the dataplane is off.
//
// The plane is disabled on TCP transports regardless of the requested
// mode: leases require synchronous cross-client invalidation, which holds
// in-process (sim, shm, and fault-wrapped variants run the whole world in
// one address space here) but would need server-push invalidation frames
// across OS processes — a documented limitation (docs/DATAPLANE.md,
// "Transport scope"). The shm provider qualifies: its mirror segments
// live in the shared arena, so one-sided mirror reads are in-place loads.
func newPlane(rt *Runtime, kind, name string, servers []int, o options, mirror bool) *dataplane.Plane {
	if o.dataplane.Mode == dataplane.ModeOff {
		return nil
	}
	prov := rt.world.Provider()
	if strings.Contains(prov.Name(), "tcp") {
		return nil
	}
	return dataplane.New(o.dataplane, dataplane.Deps{
		Prov:         prov,
		Nodes:        servers,
		Col:          rt.engine.Collector,
		HistOneSided: "onesided." + kind + "." + name + ".find",
		HistRPC:      "rpc." + kind + "." + name + ".find",
		Mirror:       mirror,
	})
}

// dpRouteRead routes one read on partition p and, when the one-sided path
// is chosen, attempts the mirror read. It returns the mirrored encoded
// value and true on a validated hit; false sends the caller down the
// authoritative RoR path (which is also where routing counters already
// pointed it).
func dpRouteRead(pl *dataplane.Plane, r *cluster.Rank, p int, kb []byte) ([]byte, bool) {
	if pl == nil {
		return nil, false
	}
	if pl.RouteRead(p, r.Clock().Now()) != dataplane.RouteOneSided {
		return nil, false
	}
	return pl.MirrorRead(r.Clock(), r.Ref(), p, kb)
}
