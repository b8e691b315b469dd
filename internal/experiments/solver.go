package experiments

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"merlin/internal/provision"
	"merlin/internal/topo"
)

// SolverCase is one engine-comparison measurement: the same multi-tenant
// workload provisioned three ways — the legacy paper-literal MIP (the
// PR-5 general path), the compact bounded-variable formulation through
// the same branch-and-bound, and the default stack with flow-structure
// detection on. The heuristic selects the shard class: weighted shortest
// path shards are pure node-arc incidence problems the network simplex
// takes outright, while the min-max heuristics keep their coupling rows
// and exercise only the bounded-variable compaction.
type SolverCase struct {
	Name string
	K    int // fat-tree arity; one tenant per pod
	// GuaranteesPerTenant is the number of intra-pod guarantees each
	// tenant requests.
	GuaranteesPerTenant int
	Heuristic           provision.Heuristic
}

// SolverCases returns the measured workloads: the sharding benchmark's
// k=8 multi-tenant fat tree under both shard classes. The flow case is
// the acceptance target — the fast path must fire on at least half its
// shards and beat the legacy general path by ≥3x.
func SolverCases() []SolverCase {
	return []SolverCase{
		{Name: "fattree-k8-flow", K: 8, GuaranteesPerTenant: 4,
			Heuristic: provision.WeightedShortestPath},
		{Name: "fattree-k8-minmax", K: 8, GuaranteesPerTenant: 4,
			Heuristic: provision.MinMaxRatio},
	}
}

// Solver measures each case.
func Solver() ([]Row, error) {
	var rows []Row
	for _, c := range SolverCases() {
		r, err := SolverRun(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// timedSolve returns the best-of-3 wall-clock of a solve configuration
// (the repetition smooths scheduler noise out of the recorded ratios)
// plus its last result.
func timedSolve(t *topo.Topology, reqs []provision.Request, h provision.Heuristic, p provision.Params) (float64, *provision.Result, error) {
	best := math.Inf(1)
	var res *provision.Result
	for i := 0; i < 3; i++ {
		start := time.Now()
		r, err := provision.Solve(t, reqs, h, p)
		if err != nil {
			return 0, nil, err
		}
		if d := ms(time.Since(start)); d < best {
			best = d
		}
		res = r
	}
	return best, res, nil
}

// SolverRun measures one case and cross-checks that all three engines
// picked the same paths: the compact formulation preserves the legacy
// model's feasible set and objective over the path variables, and the
// network simplex solves the identical cost structure. The tie-break
// perturbations do not separate every pair of equally short paths (see
// tieBreak in internal/provision), so a divergence means an engine bug or
// an exact tie, which the engines break differently.
func SolverRun(c SolverCase) (Row, error) {
	t := topo.FatTree(c.K, topo.Gbps)
	reqs, err := tenantRequests(t, c.K, c.GuaranteesPerTenant)
	if err != nil {
		return Row{}, err
	}

	legacyMS, legacy, err := timedSolve(t, reqs, c.Heuristic,
		provision.Params{NoNetflow: true, LegacyModel: true})
	if err != nil {
		return Row{}, fmt.Errorf("legacy solve: %w", err)
	}
	compactMS, compact, err := timedSolve(t, reqs, c.Heuristic,
		provision.Params{NoNetflow: true})
	if err != nil {
		return Row{}, fmt.Errorf("compact solve: %w", err)
	}
	defMS, def, err := timedSolve(t, reqs, c.Heuristic, provision.Params{})
	if err != nil {
		return Row{}, fmt.Errorf("default solve: %w", err)
	}

	for _, r := range reqs {
		if !reflect.DeepEqual(legacy.Paths[r.ID], compact.Paths[r.ID]) {
			return Row{}, fmt.Errorf("compact formulation rerouted %s", r.ID)
		}
		if !reflect.DeepEqual(legacy.Paths[r.ID], def.Paths[r.ID]) {
			return Row{}, fmt.Errorf("default stack rerouted %s", r.ID)
		}
	}
	for _, res := range []*provision.Result{legacy, compact, def} {
		if err := res.Validate(t); err != nil {
			return Row{}, err
		}
	}
	if c.Heuristic == provision.WeightedShortestPath {
		if def.NetflowShards < c.K/2 {
			return Row{}, fmt.Errorf("network simplex fired on %d/%d shards, want >= %d",
				def.NetflowShards, c.K, c.K/2)
		}
	} else if def.NetflowShards != 0 {
		return Row{}, fmt.Errorf("network simplex fired on a min-max shard (%d)", def.NetflowShards)
	}

	compactSpeedup, speedup := 0.0, 0.0
	if compactMS > 0 {
		compactSpeedup = legacyMS / compactMS
	}
	if defMS > 0 {
		speedup = legacyMS / defMS
	}
	return row(c.Name,
		"requests", fmt.Sprint(len(reqs)),
		"shards", fmt.Sprint(len(def.Shards)),
		"netflow_shards", fmt.Sprint(def.NetflowShards),
		"bnb_nodes", fmt.Sprint(def.Nodes),
		"legacy_ms", fmt.Sprintf("%.1f", legacyMS),
		"compact_ms", fmt.Sprintf("%.1f", compactMS),
		"default_ms", fmt.Sprintf("%.1f", defMS),
		"compact_speedup", fmt.Sprintf("%.1f", compactSpeedup),
		"speedup", fmt.Sprintf("%.1f", speedup),
	), nil
}
