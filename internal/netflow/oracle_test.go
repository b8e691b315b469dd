package netflow

import "math"

// solveOracle is the full-sweep network simplex that Solve replaced: after
// every pivot it rebuilds the child lists and recomputes every potential
// and depth by a BFS from the root. Solve re-derives them only inside the
// re-hung subtree; since a vertex's potential depends only on its root
// path, the two must return deeply equal Solutions, pivot counts
// included.
func solveOracle(p Problem) Solution {
	n := p.N
	nArcs := len(p.Arcs)
	total := nArcs + n // real arcs + one artificial per node
	root := n

	// bigM exceeds any possible sum of |cost| along a path, so artificial
	// arcs price out of every optimal basis of a feasible instance.
	bigM := 1.0
	for _, a := range p.Arcs {
		bigM += math.Abs(a.Cost)
	}
	bigM *= float64(n + 1)

	from := make([]int, total)
	to := make([]int, total)
	capac := make([]float64, total)
	cost := make([]float64, total)
	for i, a := range p.Arcs {
		from[i], to[i], capac[i], cost[i] = a.From, a.To, a.Cap, a.Cost
	}
	flow := make([]float64, total)
	stat := make([]int8, total)

	// Initial strongly feasible tree: every node hangs off the artificial
	// root through an artificial arc oriented along its supply.
	parent := make([]int, n+1)
	parc := make([]int, n+1) // arc connecting node to its parent
	depth := make([]int, n+1)
	parent[root], parc[root], depth[root] = -1, -1, 0
	for v := 0; v < n; v++ {
		ai := nArcs + v
		s := p.Supply[v]
		if s >= 0 {
			from[ai], to[ai] = v, root
			flow[ai] = s
		} else {
			from[ai], to[ai] = root, v
			flow[ai] = -s
		}
		capac[ai], cost[ai] = math.Inf(1), bigM
		stat[ai] = inTree
		parent[v], parc[v], depth[v] = root, ai, 1
	}

	pot := make([]float64, n+1)     // node potentials, root pinned at 0
	kids := make([][]int, n+1)      // rebuilt each sweep from parent
	order := make([]int, 0, n+1)    // BFS order for potential/depth sweeps
	cycleArc := make([]int, 0, n+1) // pivot scratch
	cycleFwd := make([]bool, 0, n+1)

	// sweep recomputes potentials and depths for the whole tree — O(n) per
	// pivot, plenty for the shard-sized instances this package serves.
	sweep := func() {
		for v := range kids {
			kids[v] = kids[v][:0]
		}
		for v := 0; v <= n; v++ {
			if parent[v] >= 0 {
				kids[parent[v]] = append(kids[parent[v]], v)
			}
		}
		pot[root], depth[root] = 0, 0
		order = append(order[:0], root)
		for qi := 0; qi < len(order); qi++ {
			u := order[qi]
			for _, v := range kids[u] {
				a := parc[v]
				if from[a] == v { // v → u: cost - pot[v] + pot[u] = 0
					pot[v] = cost[a] + pot[u]
				} else { // u → v
					pot[v] = pot[u] - cost[a]
				}
				depth[v] = depth[u] + 1
				order = append(order, v)
			}
		}
	}
	sweep()

	maxPivots := 64*(total+1) + 1024
	pivots := 0
	for {
		if pivots >= maxPivots {
			return Solution{Status: Limit, Pivots: pivots}
		}
		// Bland pricing: least-index eligible real arc. Artificial arcs
		// carry cost bigM and never become attractive again once out of
		// the tree.
		ent := -1
		fwd := true // push along the arc (true) or against it (false)
		for a := 0; a < nArcs; a++ {
			rc := cost[a] - pot[from[a]] + pot[to[a]]
			if stat[a] == atLower && rc < -tol && capac[a] > tol {
				ent, fwd = a, true
				break
			}
			if stat[a] == atUpper && rc > tol {
				ent, fwd = a, false
				break
			}
		}
		if ent < 0 {
			break
		}
		pivots++

		// The pivot cycle: Δ rides the entering arc from u to v (in its
		// push direction) and returns v → u through the tree path over
		// their common ancestor. For each tree arc on that path, flow
		// increases iff the arc points along the return direction: on v's
		// side (walked child→parent) an arc pointing child→parent aligns;
		// on u's side the return runs parent→child, so the test flips.
		// The walk order is fixed by the tree, so the leaving-arc rule
		// below ("first minimum in scan order") is deterministic.
		cycleArc = append(cycleArc[:0], ent)
		cycleFwd = append(cycleFwd[:0], fwd)
		u, v := from[ent], to[ent]
		if !fwd {
			u, v = v, u
		}
		au, av := u, v
		for depth[au] > depth[av] {
			a := parc[au]
			cycleArc = append(cycleArc, a)
			cycleFwd = append(cycleFwd, from[a] != au)
			au = parent[au]
		}
		for depth[av] > depth[au] {
			a := parc[av]
			cycleArc = append(cycleArc, a)
			cycleFwd = append(cycleFwd, from[a] == av)
			av = parent[av]
		}
		for au != av {
			a := parc[au]
			cycleArc = append(cycleArc, a)
			cycleFwd = append(cycleFwd, from[a] != au)
			au = parent[au]
			a = parc[av]
			cycleArc = append(cycleArc, a)
			cycleFwd = append(cycleFwd, from[a] == av)
			av = parent[av]
		}

		// Ratio test: the largest Δ every cycle arc tolerates.
		delta := math.Inf(1)
		leave := -1
		leaveFwd := true
		for i, a := range cycleArc {
			var room float64
			if cycleFwd[i] {
				room = capac[a] - flow[a]
			} else {
				room = flow[a]
			}
			if room < delta-tol {
				delta = room
				leave = a
				leaveFwd = cycleFwd[i]
			}
		}
		if math.IsInf(delta, 1) {
			return Solution{Status: Unbounded, Pivots: pivots}
		}
		if delta < 0 {
			delta = 0
		}
		// Apply Δ around the cycle.
		for i, a := range cycleArc {
			if cycleFwd[i] {
				flow[a] += delta
			} else {
				flow[a] -= delta
			}
		}
		if leave == ent {
			// Bound flip: the entering arc saturated before any tree arc;
			// the tree is unchanged.
			if fwd {
				stat[ent] = atUpper
			} else {
				stat[ent] = atLower
			}
			continue
		}
		// The leaving arc drops to whichever bound it hit.
		if leaveFwd {
			stat[leave] = atUpper
		} else {
			stat[leave] = atLower
		}
		stat[ent] = inTree
		// Re-hang the tree: removing the leaving arc splits off the
		// subtree containing exactly one endpoint of the entering arc.
		// Reverse the parent chain from that endpoint up to the leaving
		// arc's child node, then attach the endpoint under the other side
		// through the entering arc.
		lchild := from[leave]
		if parc[lchild] != leave {
			lchild = to[leave]
		}
		// Which entering endpoint lives in the detached subtree?
		inSub := func(x int) bool {
			for x >= 0 {
				if x == lchild {
					return true
				}
				x = parent[x]
			}
			return false
		}
		eu, ev := from[ent], to[ent]
		sub, keep := eu, ev
		if !inSub(eu) {
			sub, keep = ev, eu
		}
		// Reverse the chain sub → ... → lchild.
		prevNode, prevArc := keep, ent
		x := sub
		for {
			nextNode, nextArc := parent[x], parc[x]
			parent[x], parc[x] = prevNode, prevArc
			if x == lchild {
				break
			}
			prevNode, prevArc = x, nextArc
			x = nextNode
		}
		sweep()
	}

	// Any residual artificial flow means the supplies cannot be routed.
	for a := nArcs; a < total; a++ {
		if flow[a] > 1e-7 {
			return Solution{Status: Infeasible, Pivots: pivots}
		}
	}
	out := Solution{Status: Optimal, Flow: flow[:nArcs:nArcs], Pivots: pivots}
	for a := 0; a < nArcs; a++ {
		out.Cost += cost[a] * flow[a]
	}
	return out
}
