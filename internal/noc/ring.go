package noc

import (
	"fmt"

	"smarco/internal/fault"
	"smarco/internal/sim"
)

// Ring is a bidirectional ring of routers. The same type builds both the
// main ring and the sub-rings; a resolver maps any destination node to the
// node attached to this ring that handles it (e.g. on the main ring, a core
// destination resolves to its sub-ring's hub).
type Ring struct {
	Name    string
	cfg     LinkConfig
	routers []*Router
	stopOf  map[NodeID]int
	resolve func(NodeID) NodeID
	// route caches the resolver and stopOf per destination: route[dst] is
	// 1 + the stop where packets for dst leave the ring, 0 while dst is
	// unresolved. routeDir fills it on first use, so building a ring pays
	// nothing for it. A ring's routers all tick in one shard, so only one
	// goroutine fills it.
	route []int32
}

// NewRing builds a ring with the given number of stops. keyBase must be
// unique per ring so port commit ordering stays globally deterministic.
func NewRing(name string, stops int, cfg LinkConfig, keyBase uint64) (*Ring, error) {
	if stops < 2 {
		return nil, fmt.Errorf("noc: ring %q needs at least 2 stops, got %d", name, stops)
	}
	r := &Ring{
		Name:    name,
		cfg:     cfg,
		stopOf:  make(map[NodeID]int),
		resolve: func(id NodeID) NodeID { return id },
	}
	for i := 0; i < stops; i++ {
		r.routers = append(r.routers, newRouter(r, i, keyBase+uint64(i)))
	}
	return r, nil
}

// MustNewRing is NewRing for statically known-good configurations.
func MustNewRing(name string, stops int, cfg LinkConfig, keyBase uint64) *Ring {
	r, err := NewRing(name, stops, cfg, keyBase)
	if err != nil {
		panic(err)
	}
	return r
}

// SetFaultInjector installs a fault injector on every router of the ring
// (nil disables injection).
func (r *Ring) SetFaultInjector(inj *fault.Injector) {
	for _, rt := range r.routers {
		rt.flt.inj = inj
	}
}

// SetResolver installs the destination resolver.
func (r *Ring) SetResolver(f func(NodeID) NodeID) {
	r.resolve = f
	r.route = nil
}

// Attach binds node to the router at stop and returns the node's inject and
// eject ports. The component sends packets to inject and drains eject.
func (r *Ring) Attach(stop int, node NodeID) (inject, eject *sim.Port[*Packet]) {
	if stop < 0 || stop >= len(r.routers) {
		panic(fmt.Sprintf("noc: ring %q has no stop %d", r.Name, stop))
	}
	if _, dup := r.stopOf[node]; dup {
		panic(fmt.Sprintf("noc: node %v attached twice to ring %q", node, r.Name))
	}
	r.stopOf[node] = stop
	r.route = nil
	rt := r.routers[stop]
	return rt.inject, rt.eject
}

// Routers returns the ring's routers for engine registration.
func (r *Ring) Routers() []*Router { return r.routers }

// Router returns the router at a stop.
func (r *Ring) Router(stop int) *Router { return r.routers[stop] }

// Ports returns every port owned by the ring, for engine registration.
func (r *Ring) Ports() []interface{ Commit(uint64) } {
	var out []interface{ Commit(uint64) }
	for _, rt := range r.routers {
		out = append(out, rt.inCW, rt.inCCW, rt.inject, rt.eject)
	}
	return out
}

// Stops returns the number of stops.
func (r *Ring) Stops() int { return len(r.routers) }

// StopOf returns the stop a node is attached to.
func (r *Ring) StopOf(node NodeID) (int, bool) {
	s, ok := r.stopOf[node]
	return s, ok
}

// routeDir decides where a packet goes from router rt: -1 = eject locally,
// dirCW / dirCCW = continue around the ring. Ties in path length are broken
// by downstream congestion (§3.2: cores choose direction by congestion).
func (r *Ring) routeDir(rt *Router, p *Packet) int {
	stop := r.stopFor(p.Dst)
	if stop == rt.pos {
		return -1
	}
	n := len(r.routers)
	cwDist := (stop - rt.pos + n) % n
	ccwDist := (rt.pos - stop + n) % n
	switch {
	case cwDist < ccwDist:
		return dirCW
	case ccwDist < cwDist:
		return dirCCW
	default:
		// Equidistant: pick the less congested downstream buffer.
		cw := r.neighborIn(rt.pos, dirCW).Len()
		ccw := r.neighborIn(rt.pos, dirCCW).Len()
		if ccw < cw {
			return dirCCW
		}
		return dirCW
	}
}

// stopFor returns the stop where packets for dst leave the ring.
func (r *Ring) stopFor(dst NodeID) int {
	if i := int(dst); i >= 0 && i < len(r.route) && r.route[i] != 0 {
		return int(r.route[i] - 1)
	}
	return r.resolveStop(dst)
}

// resolveStop resolves dst through the resolver and the attachment map and
// records the answer in the route table. An unroutable destination panics
// and is not recorded.
func (r *Ring) resolveStop(dst NodeID) int {
	target := r.resolve(dst)
	stop, ok := r.stopOf[target]
	if !ok {
		panic(fmt.Sprintf("noc: ring %q cannot route to %v (resolved %v)", r.Name, dst, target))
	}
	if i := int(dst); i >= 0 {
		if i >= len(r.route) {
			r.route = append(r.route, make([]int32, i+1-len(r.route))...)
		}
		r.route[i] = int32(stop + 1)
	}
	return stop
}

// neighborIn returns the input port on the neighboring router that receives
// traffic leaving rt in direction dir.
func (r *Ring) neighborIn(pos, dir int) *sim.Port[*Packet] {
	n := len(r.routers)
	if dir == dirCW {
		return r.routers[(pos+1)%n].inCW
	}
	return r.routers[(pos-1+n)%n].inCCW
}

// TotalStats sums router counters across the ring.
func (r *Ring) TotalStats() RouterStats {
	var total RouterStats
	for _, rt := range r.routers {
		total.Forwarded.Add(rt.Stats.Forwarded.Value())
		total.BytesSent.Add(rt.Stats.BytesSent.Value())
		total.BytesSpent.Add(rt.Stats.BytesSpent.Value())
		total.Ejected.Add(rt.Stats.Ejected.Value())
		total.StallFull.Add(rt.Stats.StallFull.Value())
		total.ActiveCyc.Add(rt.Stats.ActiveCyc.Value())
	}
	return total
}

// Capacity returns the ring's aggregate per-cycle transmit capacity in
// bytes (both directions of every link), used for utilization metrics.
func (r *Ring) Capacity() uint64 {
	perRouter := (2*r.cfg.FixedLanes + r.cfg.FlexLanes) * r.cfg.LaneBytes
	return uint64(perRouter * len(r.routers))
}
