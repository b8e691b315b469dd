// Package netflow solves minimum-cost network flow with a spanning-tree
// primal network simplex. It is the fast path behind the provisioning
// solver: a shard whose capacity constraints are provably redundant is a
// pure node-arc-incidence problem, whose basis matrices are spanning trees
// — every pivot is a cycle update instead of a factorized linear solve,
// and integral supplies and capacities make every basic solution integral,
// so the LP relaxation needs no branch and bound at all (the total
// unimodularity argument of network-flow theory).
//
// The implementation keeps the classic tree arrays (parent, parent-arc,
// depth, child/sibling links) plus node potentials, re-derives potentials
// and depths only inside the subtree each pivot re-hangs, prices with
// Bland's least-index entering rule for determinism, and bounds pivots so
// a (theoretically possible) degenerate cycle degrades into a clean Limit
// status the caller can fall back from, never a hang.
package netflow

import "math"

// Status reports the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	Limit // pivot budget exhausted (degenerate cycling guard)
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	default:
		return "unknown"
	}
}

// Arc is one directed arc with flow bounds [0, Cap] and unit cost Cost.
type Arc struct {
	From, To int
	Cap      float64 // may be math.Inf(1)
	Cost     float64
}

// Problem is a min-cost flow instance over nodes 0..N-1. Supply[i] > 0
// means node i injects flow, < 0 that it absorbs; supplies must sum to
// (numerically) zero for the instance to be feasible.
type Problem struct {
	N      int
	Arcs   []Arc
	Supply []float64
}

// Solution is the result of a solve.
type Solution struct {
	Status Status
	Flow   []float64 // per arc, parallel to Problem.Arcs
	Cost   float64   // Σ Cost·Flow over the real arcs
	Pivots int
}

const tol = 1e-9

// arc status
const (
	atLower int8 = iota
	inTree
	atUpper
)

// Solve runs the primal network simplex. Integral supplies and capacities
// yield integral flows (basic solutions of a node-arc incidence matrix are
// spanning-tree flows).
func Solve(p Problem) Solution {
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
	// root through an artificial arc oriented along its supply. Children
	// are kept as first-child / next-sibling / prev-sibling links so a
	// pivot can re-hang one subtree in place.
	parent := make([]int, n+1)
	parc := make([]int, n+1) // arc connecting node to its parent
	depth := make([]int, n+1)
	pot := make([]float64, n+1) // node potentials, root pinned at 0
	child := make([]int, n+1)
	next := make([]int, n+1)
	prev := make([]int, n+1)
	parent[root], parc[root], depth[root], child[root] = -1, -1, 0, -1
	for v := 0; v < n; v++ {
		ai := nArcs + v
		s := p.Supply[v]
		capac[ai], cost[ai] = math.Inf(1), bigM
		if s >= 0 {
			from[ai], to[ai] = v, root
			flow[ai] = s
			pot[v] = cost[ai] + pot[root] // v → root: cost - pot[v] + pot[root] = 0
		} else {
			from[ai], to[ai] = root, v
			flow[ai] = -s
			pot[v] = pot[root] - cost[ai]
		}
		stat[ai] = inTree
		parent[v], parc[v], depth[v] = root, ai, 1
		child[v], prev[v], next[v] = -1, v-1, v+1 // the root's children, in index order
	}
	if n > 0 {
		child[root], next[n-1] = 0, -1
	}

	cycleArc := make([]int, 0, n+1) // pivot scratch
	cycleFwd := make([]bool, 0, n+1)

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
		// Reverse the chain sub → ... → lchild, moving each node from its
		// old parent's child list to its new parent's.
		prevNode, prevArc := keep, ent
		x := sub
		for {
			nextNode, nextArc := parent[x], parc[x]
			if prev[x] >= 0 {
				next[prev[x]] = next[x]
			} else {
				child[nextNode] = next[x]
			}
			if next[x] >= 0 {
				prev[next[x]] = prev[x]
			}
			parent[x], parc[x] = prevNode, prevArc
			prev[x], next[x] = -1, child[prevNode]
			if child[prevNode] >= 0 {
				prev[child[prevNode]] = x
			}
			child[prevNode] = x
			if x == lchild {
				break
			}
			prevNode, prevArc = x, nextArc
			x = nextNode
		}
		// Only the re-hung subtree changed its root paths, so only its
		// potentials and depths move. Walk it in preorder (parents before
		// children) from sub, using the same per-arc formula as the
		// initial tree, so every potential is bit-identical to a full
		// recomputation.
		x = sub
		for {
			u, a := parent[x], parc[x]
			if from[a] == x { // x → u: cost - pot[x] + pot[u] = 0
				pot[x] = cost[a] + pot[u]
			} else { // u → x
				pot[x] = pot[u] - cost[a]
			}
			depth[x] = depth[u] + 1
			if child[x] >= 0 {
				x = child[x]
				continue
			}
			for x != sub && next[x] < 0 {
				x = parent[x]
			}
			if x == sub {
				break
			}
			x = next[x]
		}
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
