package corpus

import (
	"sort"

	"merlin/internal/topo"
)

// A region is one node-disjoint slice of the topology: a connected ball
// of switches grown breadth-first around a host-attachment seed, plus the
// hosts attached inside it. Regions generalize the fat-tree pod: a path
// expression alternating a region's node names confines a tenant to it,
// and because distinct regions share no nodes they share no cables, so
// provisioning decomposes into one shard per region.
type region struct {
	// names is the sorted node-name set (switches and hosts) — the
	// alternation the path expression is built from.
	names []string
	// hosts is the sorted host-name subset, the tenant's endpoint pool.
	hosts []string
	// set holds every member node for confinement checks.
	set map[topo.NodeID]bool
}

// partitionRegions grows up to want node-disjoint regions over the
// topology's switches by round-robin multi-source BFS from evenly spaced
// host-attachment seeds, then drops regions with fewer than two hosts
// (no intra-region pair exists). Growth claims every switch, each one by
// the region that reaches it first, so regions are connected by
// construction. Deterministic: seeds, queue order, and neighbor order
// all derive from node-ID order.
func partitionRegions(t *topo.Topology, want int) []*region {
	var attach []topo.NodeID
	for _, s := range t.Switches() {
		for _, n := range t.Neighbors(s) {
			if t.Node(n).Kind == topo.Host {
				attach = append(attach, s)
				break
			}
		}
	}
	if len(attach) == 0 {
		return nil
	}
	if want < 1 {
		want = 1
	}
	if want > len(attach) {
		want = len(attach)
	}
	// Evenly spaced seeds over the attachment switches (ID order spreads
	// them across the graph for every generator in internal/topo).
	owner := map[topo.NodeID]int{}
	queues := make([][]topo.NodeID, 0, want)
	for i := 0; i < want; i++ {
		seed := attach[i*len(attach)/want]
		if _, taken := owner[seed]; taken {
			continue
		}
		owner[seed] = len(queues)
		queues = append(queues, []topo.NodeID{seed})
	}
	// Round-robin frontier expansion: each region claims one node's
	// unowned switch-neighbors per round, keeping ball sizes balanced.
	for {
		progress := false
		for r := range queues {
			if len(queues[r]) == 0 {
				continue
			}
			n := queues[r][0]
			queues[r] = queues[r][1:]
			progress = true
			for _, m := range t.Neighbors(n) {
				if t.Node(m).Kind != topo.Switch {
					continue
				}
				if _, taken := owner[m]; taken {
					continue
				}
				owner[m] = r
				queues[r] = append(queues[r], m)
			}
		}
		if !progress {
			break
		}
	}
	regions := make([]*region, len(queues))
	for i := range regions {
		regions[i] = &region{set: map[topo.NodeID]bool{}}
	}
	for _, s := range t.Switches() {
		r, ok := owner[s]
		if !ok {
			continue
		}
		regions[r].set[s] = true
		regions[r].names = append(regions[r].names, t.Node(s).Name)
	}
	for _, h := range t.Hosts() {
		a, ok := t.Attachment(h)
		if !ok {
			continue
		}
		r, ok := owner[a]
		if !ok {
			continue
		}
		name := t.Node(h).Name
		regions[r].set[h] = true
		regions[r].names = append(regions[r].names, name)
		regions[r].hosts = append(regions[r].hosts, name)
	}
	kept := regions[:0]
	for _, r := range regions {
		if len(r.hosts) < 2 {
			continue
		}
		sort.Strings(r.names)
		sort.Strings(r.hosts)
		kept = append(kept, r)
	}
	return kept
}

// Regions partitions the topology into up to want link-disjoint tenant
// regions and returns each region's sorted node names and host names —
// the exported face of the partitioner for benchmark workloads that
// build provisioning requests directly.
func Regions(t *topo.Topology, want int) (names, hosts [][]string) {
	for _, r := range partitionRegions(t, want) {
		names = append(names, r.names)
		hosts = append(hosts, r.hosts)
	}
	return names, hosts
}

// reachable reports whether src reaches dst over live links, treating
// cables in skip as down, node down (pass -1 for none) as failed, and —
// when allowed is non-nil — refusing to traverse nodes outside allowed
// (src and dst are always admitted).
func reachable(t *topo.Topology, src, dst topo.NodeID, skip map[topo.LinkID]bool, down topo.NodeID, allowed []bool) bool {
	if src == down || dst == down {
		return false
	}
	if src == dst {
		return true
	}
	seen := make([]bool, t.NumNodes())
	seen[src] = true
	frontier := []topo.NodeID{src}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		for _, l := range t.Out(n) {
			if !t.LinkIsUp(l) || skip[t.Cable(l)] {
				continue
			}
			m := t.Link(l).Dst
			if m == down || seen[m] {
				continue
			}
			if m == dst {
				return true
			}
			if allowed != nil && !allowed[m] {
				continue
			}
			seen[m] = true
			frontier = append(frontier, m)
		}
	}
	return false
}

// nodeSet returns the nodes of a region as a membership slice indexed by
// node ID; names the topology does not know are ignored.
func nodeSet(t *topo.Topology, names []string) []bool {
	set := make([]bool, t.NumNodes())
	for _, name := range names {
		if id, ok := t.Lookup(name); ok {
			set[id] = true
		}
	}
	return set
}

// RegionConnects reports whether src still reaches dst through the named
// region's nodes while the cable between skipA and skipB is down (pass
// empty names to skip nothing) — the feasibility probe failure-schedule
// generation and failover benchmarks share.
func RegionConnects(t *topo.Topology, region []string, src, dst, skipA, skipB string) bool {
	var allowed []bool
	if len(region) > 0 {
		allowed = nodeSet(t, region)
	}
	skip := map[topo.LinkID]bool{}
	if skipA != "" && skipB != "" {
		a, okA := t.Lookup(skipA)
		b, okB := t.Lookup(skipB)
		if okA && okB {
			if c, ok := t.CableBetween(a, b); ok {
				skip[c] = true
			}
		}
	}
	s, okS := t.Lookup(src)
	d, okD := t.Lookup(dst)
	if !okS || !okD {
		return false
	}
	return reachable(t, s, d, skip, -1, allowed)
}
