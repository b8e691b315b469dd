package experiments

import (
	"fmt"
	"math"
	"merlin/internal/codegen"
	"reflect"
	"strings"
	"time"

	"merlin/internal/corpus"
	"merlin/internal/logical"
	"merlin/internal/provision"
	"merlin/internal/regex"
	"merlin/internal/topo"

	merlin "merlin"
)

// ZooScaleCase is one real-topology scale measurement: a Topology Zoo
// network with over a hundred switches, partitioned into link-disjoint
// regions by the corpus partitioner, with per-region tenants whose
// guarantees confine to their region — the fat-tree sharding/failover
// workload transplanted onto irregular real-world graphs.
type ZooScaleCase struct {
	Name string
	// Topo is the corpus topology name (zoo-N).
	Topo string
	// Regions is the region count requested from the partitioner; regions
	// with fewer than two hosts are dropped, so the tenant count may come
	// out lower.
	Regions int
	// GuaranteesPerTenant is the number of intra-region guarantees each
	// tenant requests.
	GuaranteesPerTenant int
}

// ZooShardingCases returns the sharding measurements: a 127-switch
// tree-like ISP graph and a 104-switch ring-like backbone. Sparse
// families keep the monolithic dense-tableau baseline solvable (a dense
// Waxman entry of the same size blows its iteration budget), and their
// regions still decompose cleanly.
func ZooShardingCases() []ZooScaleCase {
	return []ZooScaleCase{
		{Name: "zoo-2-tree127", Topo: "zoo-2", Regions: 5, GuaranteesPerTenant: 3},
		{Name: "zoo-40-ring104", Topo: "zoo-40", Regions: 5, GuaranteesPerTenant: 3},
	}
}

// ZooFailoverCases returns the failover measurements: two Waxman-family
// zoo graphs past the 100-switch mark. Only the dense families can carry
// this one — a region of a tree or ring entry has no internal
// redundancy, so a confined guarantee there cannot survive an
// intra-region cable loss.
func ZooFailoverCases() []ZooScaleCase {
	return []ZooScaleCase{
		{Name: "zoo-14-waxman120", Topo: "zoo-14", Regions: 8, GuaranteesPerTenant: 3},
		{Name: "zoo-54-waxman110", Topo: "zoo-54", Regions: 8, GuaranteesPerTenant: 3},
	}
}

// zooRegions builds the case's topology and its per-tenant regions.
func zooRegions(c ZooScaleCase) (*topo.Topology, [][]string, [][]string, error) {
	t, err := corpus.BuildTopo(c.Topo)
	if err != nil {
		return nil, nil, nil, err
	}
	names, hosts := corpus.Regions(t, c.Regions)
	if len(names) < 2 {
		return nil, nil, nil, fmt.Errorf("%s partitions into %d regions, need ≥2 for sharding", c.Topo, len(names))
	}
	return t, names, hosts, nil
}

// zooPair picks tenant p's g-th deterministic intra-region host pair.
func zooPair(hosts []string, p, g int) (src, dst string) {
	n := len(hosts)
	i := (p + g) % n
	j := (i + 1 + g%(n-1)) % n
	if i == j {
		j = (j + 1) % n
	}
	return hosts[i], hosts[j]
}

// zooRequests builds the per-region tenants' guarantee requests: tenant p
// asks for n guarantees between deterministic host pairs inside region p,
// each confined to the region by the path expression (regionNodes)*.
func zooRequests(t *topo.Topology, names, hosts [][]string, n int) ([]provision.Request, error) {
	alpha := logical.Alphabet(t)
	var reqs []provision.Request
	for p := range names {
		syms := make([]regex.Expr, len(names[p]))
		for i, nm := range names[p] {
			syms[i] = regex.Sym{Name: nm}
		}
		expr := regex.Star{X: regex.AltAll(syms...)}
		for g := 0; g < n; g++ {
			src, dst := zooPair(hosts[p], p, g)
			graph, err := logical.BuildAnchored(t, expr, alpha, src, dst)
			if err != nil {
				return nil, fmt.Errorf("region %d guarantee %d: %w", p, g, err)
			}
			reqs = append(reqs, provision.Request{
				ID:      fmt.Sprintf("z%dg%d", p, g),
				Graph:   graph,
				MinRate: float64(10+5*g) * topo.Mbps,
			})
		}
	}
	return reqs, nil
}

// ZooSharding measures monolithic-vs-sharded provisioning on each zoo
// case, with the same equivalence cross-checks as the fat-tree rows.
func ZooSharding() ([]Row, error) {
	var rows []Row
	for _, c := range ZooShardingCases() {
		r, err := ZooShardingRun(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// ZooShardingRun measures one case.
func ZooShardingRun(c ZooScaleCase) (Row, error) {
	t, names, hosts, err := zooRegions(c)
	if err != nil {
		return Row{}, err
	}
	reqs, err := zooRequests(t, names, hosts, c.GuaranteesPerTenant)
	if err != nil {
		return Row{}, err
	}

	monoStart := time.Now()
	mono, err := provision.Solve(t, reqs, provision.WeightedShortestPath,
		provision.Params{NoShard: true, NoNetflow: true, LegacyModel: true})
	if err != nil {
		return Row{}, fmt.Errorf("monolithic solve: %w", err)
	}
	monoMS := ms(time.Since(monoStart))

	shardStart := time.Now()
	sharded, err := provision.Solve(t, reqs, provision.WeightedShortestPath, provision.Params{})
	if err != nil {
		return Row{}, fmt.Errorf("sharded solve: %w", err)
	}
	shardMS := ms(time.Since(shardStart))

	objDelta := 0.0
	for _, r := range reqs {
		mh := float64(len(logical.Locations(mono.Paths[r.ID])) - 1)
		sh := float64(len(logical.Locations(sharded.Paths[r.ID])) - 1)
		objDelta += (r.MinRate/topo.Mbps + 1e-4) * (sh - mh)
	}
	if math.Abs(objDelta) > 1e-6 {
		return Row{}, fmt.Errorf("sharded objective diverges from monolithic by %g", objDelta)
	}
	if err := mono.Validate(t); err != nil {
		return Row{}, err
	}
	if err := sharded.Validate(t); err != nil {
		return Row{}, err
	}
	if len(sharded.Shards) != len(names) {
		return Row{}, fmt.Errorf("expected %d link-disjoint shards, got %d", len(names), len(sharded.Shards))
	}

	speedup := 0.0
	if shardMS > 0 {
		speedup = monoMS / shardMS
	}
	return row(c.Name,
		"requests", fmt.Sprint(len(reqs)),
		"shards", fmt.Sprint(len(sharded.Shards)),
		"monolithic_ms", fmt.Sprintf("%.1f", monoMS),
		"sharded_ms", fmt.Sprintf("%.1f", shardMS),
		"speedup", fmt.Sprintf("%.1f", speedup),
		"mono_nodes", fmt.Sprint(mono.Nodes),
		"sharded_nodes", fmt.Sprint(sharded.Nodes),
		"netflow_shards", fmt.Sprint(sharded.NetflowShards),
	), nil
}

// zooPolicy renders the per-region tenants' guarantees as Merlin source,
// mirroring zooRequests at the policy level.
func zooPolicy(t *topo.Topology, names, hosts [][]string, n int) string {
	mac := func(name string) string {
		return topo.MACOf(t.MustLookup(name))
	}
	var sb strings.Builder
	sb.WriteString("[")
	for p := range names {
		expr := "( " + strings.Join(names[p], " | ") + " )*"
		for g := 0; g < n; g++ {
			src, dst := zooPair(hosts[p], p, g)
			fmt.Fprintf(&sb, " z%dg%d : (eth.src = %s and eth.dst = %s) -> %s at min(%dMbps) ;",
				p, g, mac(src), mac(dst), expr, 10+5*g)
		}
	}
	sb.WriteString("]")
	return sb.String()
}

// zooFailureTarget picks the cable to fail: the first switch-to-switch
// hop on any provisioned path whose loss the owning region survives — on
// an irregular graph a hop can be a bridge, so each candidate is checked
// against the region before being failed.
func zooFailureTarget(t *topo.Topology, names, hosts [][]string, g int, paths map[string][]string) (a, b string, err error) {
	for p := range names {
		for q := 0; q < g; q++ {
			src, dst := zooPair(hosts[p], p, q)
			path := paths[fmt.Sprintf("z%dg%d", p, q)]
			for i := 1; i < len(path); i++ {
				na, okA := t.Lookup(path[i-1])
				nb, okB := t.Lookup(path[i])
				if !okA || !okB {
					continue
				}
				if t.Node(na).Kind != topo.Switch || t.Node(nb).Kind != topo.Switch {
					continue
				}
				if corpus.RegionConnects(t, names[p], src, dst, path[i-1], path[i]) {
					return path[i-1], path[i], nil
				}
			}
		}
	}
	return "", "", fmt.Errorf("no survivable switch-switch hop on any provisioned path")
}

// ZooFailover measures link-failure recovery on each zoo case: the warm
// incremental pipeline versus a cold recompile on the degraded topology,
// with the same byte-identical cross-check as the fat-tree row.
func ZooFailover() ([]Row, error) {
	var rows []Row
	for _, c := range ZooFailoverCases() {
		r, err := ZooFailoverRun(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// ZooFailoverRun measures one case.
func ZooFailoverRun(c ZooScaleCase) (Row, error) {
	t, names, hosts, err := zooRegions(c)
	if err != nil {
		return Row{}, err
	}
	pol, err := merlin.ParsePolicy(zooPolicy(t, names, hosts, c.GuaranteesPerTenant), t)
	if err != nil {
		return Row{}, err
	}
	opts := merlin.Options{NoDefault: true}
	comp := merlin.NewCompiler(t, nil, opts)
	if _, err := comp.Compile(pol); err != nil {
		return Row{}, fmt.Errorf("warm build: %w", err)
	}
	a, b, err := zooFailureTarget(t, names, hosts, c.GuaranteesPerTenant, comp.Result().Paths)
	if err != nil {
		return Row{}, err
	}

	t2, err := corpus.BuildTopo(c.Topo)
	if err != nil {
		return Row{}, err
	}
	if _, err := t2.SetLinkState(t2.MustLookup(a), t2.MustLookup(b), false); err != nil {
		return Row{}, err
	}
	coldStart := time.Now()
	cold, err := merlin.Compile(pol, t2, nil, opts)
	if err != nil {
		return Row{}, fmt.Errorf("cold recompile: %w", err)
	}
	coldMS := ms(time.Since(coldStart))

	before := comp.Stats()
	failStart := time.Now()
	diff, err := comp.ApplyTopo(merlin.LinkFailure(a, b))
	if err != nil {
		return Row{}, fmt.Errorf("failover update: %w", err)
	}
	failMS := ms(time.Since(failStart))
	after := comp.Stats()

	got := comp.Result()
	if !reflect.DeepEqual(got.Output, cold.Output) {
		return Row{}, fmt.Errorf("incremental failover output diverges from cold recompile")
	}
	if !reflect.DeepEqual(got.Outputs[codegen.TargetHost], cold.Outputs[codegen.TargetHost]) {
		return Row{}, fmt.Errorf("incremental failover programs diverge from cold recompile")
	}
	for id, path := range got.Paths {
		if len(path) < 2 {
			return Row{}, fmt.Errorf("guarantee %s lost its path", id)
		}
		for i := 1; i < len(path); i++ {
			if (path[i-1] == a && path[i] == b) || (path[i-1] == b && path[i] == a) {
				return Row{}, fmt.Errorf("guarantee %s still routed across failed link %s-%s", id, a, b)
			}
		}
	}
	resolved := after.ShardsSolved - before.ShardsSolved
	reused := after.ShardsReused - before.ShardsReused
	if resolved != 1 || reused != len(names)-1 {
		return Row{}, fmt.Errorf("failure re-entered %d shards (reused %d), want 1 (%d): recovery is not shard-local",
			resolved, reused, len(names)-1)
	}
	if install, remove := diff.Size(); install == 0 || remove == 0 {
		return Row{}, fmt.Errorf("failover produced an empty reroute diff")
	}

	speedup := 0.0
	if failMS > 0 {
		speedup = coldMS / failMS
	}
	return row(c.Name,
		"requests", fmt.Sprint(len(names)*c.GuaranteesPerTenant),
		"cold_ms", fmt.Sprintf("%.1f", coldMS),
		"failover_ms", fmt.Sprintf("%.2f", failMS),
		"speedup", fmt.Sprintf("%.1f", speedup),
		"shards_resolved", fmt.Sprint(resolved),
		"shards_reused", fmt.Sprint(reused),
		"graphs_invalidated", fmt.Sprint(after.AnchoredInvalidated-before.AnchoredInvalidated),
	), nil
}
