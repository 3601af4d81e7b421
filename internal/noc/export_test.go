package noc

// ResolvedStop is the routing answer without the route table: the
// resolver, then the attachment map.
func (r *Ring) ResolvedStop(dst NodeID) (int, bool) {
	s, ok := r.stopOf[r.resolve(dst)]
	return s, ok
}

// TableStop is the stop routeDir reads through the route table.
func (r *Ring) TableStop(dst NodeID) int { return r.stopFor(dst) }
