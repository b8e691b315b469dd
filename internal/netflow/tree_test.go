package netflow

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// agree solves p with Solve and the full-sweep oracle and reports any
// difference in status, flows, cost or pivot count.
func agree(t *testing.T, name string, p Problem) Solution {
	t.Helper()
	got, want := Solve(p), solveOracle(p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Solve = %+v, oracle = %+v\nproblem: %+v", name, got, want, p)
	}
	return got
}

// padIsolated appends extra zero-supply vertices with no arcs and shuffles
// every vertex label, so the isolated vertices interleave with the active
// ones — the shape of a product graph, most of whose vertices hang off the
// root through artificial arcs for the whole solve.
func padIsolated(rng *rand.Rand, p Problem, extra int) Problem {
	n := p.N + extra
	perm := rng.Perm(n)
	q := Problem{N: n, Arcs: make([]Arc, len(p.Arcs)), Supply: make([]float64, n)}
	for i, a := range p.Arcs {
		q.Arcs[i] = Arc{From: perm[a.From], To: perm[a.To], Cap: a.Cap, Cost: a.Cost}
	}
	for v, s := range p.Supply {
		q.Supply[perm[v]] = s
	}
	return q
}

// multiSource spreads several non-unit supplies over distinct sources and
// sinks of a random instance.
func multiSource(rng *rand.Rand) Problem {
	p := randomProblem(rng, rng.Intn(2) == 0)
	for v := range p.Supply {
		p.Supply[v] = 0
	}
	for k := 2 + rng.Intn(4); k > 0; k-- {
		s, d := rng.Intn(p.N), rng.Intn(p.N)
		amt := float64(1 + rng.Intn(5))
		p.Supply[s] += amt
		p.Supply[d] -= amt
	}
	return p
}

// negativeCycles draws arcs with mixed-sign costs and small finite
// capacities: negative cycles saturate, so entering arcs routinely hit
// their own upper bound before any tree arc blocks (bound flips), and
// saturated arcs later re-enter from the upper bound.
func negativeCycles(rng *rand.Rand) Problem {
	n := 2 + rng.Intn(7)
	p := Problem{N: n, Supply: make([]float64, n)}
	for m := n + rng.Intn(3*n); m > 0; m-- {
		u, v := rng.Intn(n), rng.Intn(n)
		p.Arcs = append(p.Arcs, Arc{From: u, To: v, Cap: float64(1 + rng.Intn(3)), Cost: float64(rng.Intn(9) - 4)})
	}
	if rng.Intn(2) == 0 {
		s, d := rng.Intn(n), rng.Intn(n)
		p.Supply[s]++
		p.Supply[d]--
	}
	return p
}

// unboundedCycle adds an uncapacitated negative-cost cycle to a random
// instance, so its objective has no lower bound.
func unboundedCycle(rng *rand.Rand) Problem {
	p := randomProblem(rng, true)
	u, v := rng.Intn(p.N), rng.Intn(p.N)
	for u == v {
		v = rng.Intn(p.N)
	}
	p.Arcs = append(p.Arcs,
		Arc{From: u, To: v, Cap: math.Inf(1), Cost: -3},
		Arc{From: v, To: u, Cap: math.Inf(1), Cost: 1})
	return p
}

// infeasibleSplit adds a source with no arcs to a random instance and a
// matching unit of demand at one of its vertices: the supplies balance
// but cannot be routed.
func infeasibleSplit(rng *rand.Rand) Problem {
	p := randomProblem(rng, rng.Intn(2) == 0)
	p.Supply[rng.Intn(p.N)]--
	p.N++
	p.Supply = append(p.Supply, 1)
	return p
}

// TestSolveMatchesOracle holds the incremental spanning tree to the
// full-sweep oracle: deeply equal Solutions (status, every flow bit, cost,
// pivot count) on every instance family the solver meets — unit and
// general random instances, instances padded with isolated zero-supply
// vertices, multi-source supplies, bound flips, infeasible and unbounded
// instances, and zoo-shaped product graphs.
func TestSolveMatchesOracle(t *testing.T) {
	// want is the outcome each family exists to exercise; at least one
	// of its instances must reach it.
	families := []struct {
		name string
		gen  func(*rand.Rand) Problem
		want Status
	}{
		{"unit", func(r *rand.Rand) Problem { return randomProblem(r, true) }, Optimal},
		{"general", func(r *rand.Rand) Problem { return randomProblem(r, false) }, Optimal},
		{"padded", func(r *rand.Rand) Problem { return padIsolated(r, randomProblem(r, r.Intn(2) == 0), 1+r.Intn(40)) }, Optimal},
		{"multi-source", multiSource, Optimal},
		{"bound-flips", negativeCycles, Optimal},
		{"infeasible", infeasibleSplit, Infeasible},
		{"unbounded", unboundedCycle, Unbounded},
		{"zoo-shaped", zooShaped, Optimal},
	}
	for _, f := range families {
		statuses := map[Status]int{}
		check := func(seed int64) bool {
			sol := agree(t, f.name, f.gen(rand.New(rand.NewSource(seed))))
			statuses[sol.Status]++
			return true
		}
		cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
		if err := quick.Check(check, cfg); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if statuses[f.want] == 0 {
			t.Fatalf("%s: no %v instance among %v", f.name, f.want, statuses)
		}
	}
}

// TestSolveMatchesOracleAtPivotLimit pins the pivot-budget exit: an arc
// cost near the float64 limit overflows bigM to +Inf, the potentials lose
// all meaning, and pricing keeps finding an entering arc until the cap
// (64·(total+1) + 1024 pivots) ends the solve with Limit.
func TestSolveMatchesOracleAtPivotLimit(t *testing.T) {
	p := Problem{
		N: 4,
		Arcs: []Arc{
			{From: 3, To: 1, Cap: 1, Cost: 3},
			{From: 3, To: 2, Cap: 0, Cost: -2},
			{From: 0, To: 3, Cap: 0, Cost: 1},
			{From: 2, To: 3, Cap: 0, Cost: 1},
			{From: 2, To: 0, Cap: 1, Cost: -1e300},
			{From: 0, To: 3, Cap: 2, Cost: -3},
			{From: 2, To: 3, Cap: 1, Cost: -1e300},
		},
		Supply: []float64{0, 0, 0, 0},
	}
	sol := agree(t, "limit", p)
	if sol.Status != Limit || sol.Pivots != 64*(len(p.Arcs)+p.N+1)+1024 {
		t.Fatalf("status %v after %d pivots, want limit at the cap", sol.Status, sol.Pivots)
	}
}

// zooShaped draws an instance shaped like the product graphs the
// provisioning fast path solves on the zoo topologies: 452 vertices, of
// which only about a quarter carry arcs, 124 unit-capacity arcs with
// hop costs perturbed by a small tie-break (a tenth of them free, like
// product edges that cross no physical link), and one unit of supply
// from a source to a sink.
func zooShaped(rng *rand.Rand) Problem {
	const n, arcs = 452, 124
	perm := rng.Perm(n)
	active := perm[:n/4]
	p := Problem{N: n, Supply: make([]float64, n)}
	arc := func(u, v int) {
		cost := 0.0
		if rng.Intn(10) != 0 {
			cost = 1 + 1e-3*(1+1e-2*rng.Float64())
		}
		p.Arcs = append(p.Arcs, Arc{From: u, To: v, Cap: 1, Cost: cost})
	}
	// A spine from the source through every active vertex keeps the
	// instance feasible; chords between active vertices add the
	// alternative paths the solver chooses among.
	for i := 1; i < len(active); i++ {
		arc(active[i-1], active[i])
	}
	for len(p.Arcs) < arcs {
		u, v := active[rng.Intn(len(active))], active[rng.Intn(len(active))]
		if u != v {
			arc(u, v)
		}
	}
	p.Supply[active[0]] = 1
	p.Supply[active[len(active)-1]] = -1
	return p
}

// TestSolveAllocBudget holds one solve of a zoo-shaped instance to a fixed
// number of allocations: the arc and tree arrays, the cycle scratch and
// nothing per pivot. The full-sweep solver rebuilt per-vertex child slices
// on every pivot and took 142 allocations on this shape.
func TestSolveAllocBudget(t *testing.T) {
	const budget = 24
	p := zooShaped(rand.New(rand.NewSource(1)))
	sol := Solve(p)
	if sol.Status != Optimal || sol.Pivots == 0 {
		t.Fatalf("zoo-shaped instance: status %v after %d pivots", sol.Status, sol.Pivots)
	}
	allocs := testing.AllocsPerRun(20, func() { Solve(p) })
	t.Logf("zoo-shaped solve: %d pivots, %.0f allocations", sol.Pivots, allocs)
	if allocs > budget {
		t.Fatalf("Solve allocates %.0f times per call, budget %d", allocs, budget)
	}
}

func BenchmarkSolveZooShaped(b *testing.B) {
	p := zooShaped(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Solve(p)
	}
}
