// Network-simplex fast path: a shard whose link-capacity constraints are
// provably redundant is, after dropping them, a block-diagonal pure
// node-arc incidence problem — one min-cost unit-flow block per request.
// Node-arc incidence matrices are totally unimodular, so the relaxation is
// integral and the spanning-tree network simplex in internal/netflow
// solves each block exactly with no branch and bound. The costs are the
// exact per-edge costs buildModel would emit (hop epsilon, deterministic
// tie-breaking perturbation, and the WSP rate term), so the fast path
// optimizes the same objective as the general MIP and lands on the same
// paths whenever the optimum is unique. The perturbation does not
// guarantee uniqueness (see tieBreak): on an exact tie the two engines may
// pick different optimal paths. The differential fuzz harness cross-checks
// the two paths case by case.

package provision

import (
	"fmt"
	"time"

	"merlin/internal/logical"
	"merlin/internal/netflow"
	"merlin/internal/topo"
)

// netflowEligible reports whether the shard's capacity rows are redundant,
// i.e. whether the constraint matrix reduces to pure node-arc incidence.
// Two conditions: the objective must be separable per request (WSP always
// is; the min-max objectives couple requests through their shared maximum
// unless no request carries a guarantee), and every cable must fit the
// worst case of all product edges that can ride it selected at once —
// then no 0/1 assignment can violate eq. 5 and the rows prove nothing.
func netflowEligible(t *topo.Topology, reqs []Request, h Heuristic) bool {
	hasRate := false
	for _, r := range reqs {
		if r.MinRate > 0 {
			hasRate = true
			break
		}
	}
	if h != WeightedShortestPath && hasRate {
		return false
	}
	load := map[topo.LinkID]float64{}
	for _, r := range reqs {
		if r.MinRate == 0 {
			continue
		}
		for _, ed := range r.Graph.Edges {
			if ed.Link < 0 {
				continue
			}
			load[t.Cable(ed.Link)] += r.MinRate
		}
	}
	for c, l := range load {
		if l > t.Link(c).Capacity+1e-9 {
			return false
		}
	}
	return true
}

// solveNetflow provisions an eligible shard request by request as min-cost
// unit flows. It returns (nil, nil) when any block's network simplex bails
// out numerically (pivot limit) — the caller falls back to the general
// path — and a real error only for genuine infeasibility, which the
// general path would report identically.
func solveNetflow(t *topo.Topology, reqs []Request, h Heuristic, eps float64, construct, solve *time.Duration) (*ShardSolution, error) {
	out := &ShardSolution{
		Paths:    make(map[string][]logical.Step, len(reqs)),
		Reserved: map[topo.LinkID]float64{},
		Netflow:  true,
	}
	for _, r := range reqs {
		start := time.Now()
		g := r.Graph
		p := netflow.Problem{
			N:      g.NumVerts,
			Arcs:   make([]netflow.Arc, len(g.Edges)),
			Supply: make([]float64, g.NumVerts),
		}
		jitter := idJitter(r.ID)
		for e, ed := range g.Edges {
			cost := 0.0
			if ed.Link >= 0 {
				cost = eps * (1 + tieBreak(jitter, e))
				if h == WeightedShortestPath {
					cost += r.MinRate / rateUnit
				}
			}
			p.Arcs[e] = netflow.Arc{From: ed.From, To: ed.To, Cap: 1, Cost: cost}
		}
		p.Supply[g.Source] = 1
		p.Supply[g.Sink] = -1
		*construct += time.Since(start)

		solveStart := time.Now()
		sol := netflow.Solve(p)
		*solve += time.Since(solveStart)
		switch sol.Status {
		case netflow.Optimal:
			// proceed
		case netflow.Infeasible:
			return nil, fmt.Errorf("no assignment satisfies the path and bandwidth constraints")
		default:
			return nil, nil // numerical bail-out: take the general path
		}
		steps, err := g.ExtractPath(func(e int) bool { return sol.Flow[e] > 0.5 })
		if err != nil {
			return nil, fmt.Errorf("decoding %s: %w", r.ID, err)
		}
		out.Paths[r.ID] = steps
		addReservations(t, out.Reserved, steps, r.MinRate)
	}
	return out, nil
}
