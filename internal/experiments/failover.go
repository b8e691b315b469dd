package experiments

import (
	"fmt"
	"merlin/internal/codegen"
	"reflect"
	"strings"
	"time"

	"merlin/internal/topo"

	merlin "merlin"
)

// FailoverCase is one link-failure recovery measurement: a multi-tenant
// fat-tree workload compiled on a warm incremental Compiler, a link on a
// provisioned path failed, and the failure-to-new-configs latency of the
// incremental reroute compared against a cold recompile on the degraded
// topology.
type FailoverCase struct {
	Name string
	K    int // fat-tree arity; one tenant per pod
	// GuaranteesPerTenant is the number of intra-pod guarantees each
	// tenant requests.
	GuaranteesPerTenant int
}

// FailoverCases returns the measured workloads. The headline case is the
// acceptance target: a k=8 fat tree where recovering from a single link
// failure must beat a cold recompile by ≥5x — the failure invalidates one
// pod's anchored product graphs and one provisioning shard; the other
// seven tenants ride their caches.
func FailoverCases() []FailoverCase {
	return []FailoverCase{
		{Name: "fattree-k8-failover", K: 8, GuaranteesPerTenant: 6},
	}
}

// tenantPolicy renders the per-pod tenants' guarantees as Merlin source:
// tenant p asks for n guarantees between the tenantPair host pairs inside
// pod p, each confined to the pod by the path expression (podNodes)* —
// the sharding benchmark's workload, expressed at the policy level.
func tenantPolicy(t *topo.Topology, k, n int) string {
	half := k / 2
	mac := func(name string) string {
		return topo.MACOf(t.MustLookup(name))
	}
	var sb strings.Builder
	sb.WriteString("[")
	for p := 0; p < k; p++ {
		expr := "( " + strings.Join(podNames(k, p), " | ") + " )*"
		for g := 0; g < n; g++ {
			src, dst := tenantPair(p, g, half)
			fmt.Fprintf(&sb, " t%dg%d : (eth.src = %s and eth.dst = %s) -> %s at min(%dMbps) ;",
				p, g, mac(src), mac(dst), expr, 10+5*g)
		}
	}
	sb.WriteString("]")
	return sb.String()
}

// failureTarget picks the cable to fail: the first switch-to-switch hop
// on tenant 0's first provisioned path, so the failure is guaranteed to
// force a reroute.
func failureTarget(t *topo.Topology, path []string) (a, b string, err error) {
	for i := 1; i < len(path); i++ {
		na, okA := t.Lookup(path[i-1])
		nb, okB := t.Lookup(path[i])
		if !okA || !okB {
			continue
		}
		if t.Node(na).Kind == topo.Switch && t.Node(nb).Kind == topo.Switch {
			return path[i-1], path[i], nil
		}
	}
	return "", "", fmt.Errorf("no switch-switch hop on path %v", path)
}

// Failover measures each case: failure-to-new-configs latency of the
// incremental pipeline versus a cold recompile on the degraded topology,
// cross-checking that the two agree byte for byte and that only the
// touched shard re-entered the MIP.
func Failover() ([]Row, error) {
	var rows []Row
	for _, c := range FailoverCases() {
		r, err := FailoverRun(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		rows = append(rows, r)
	}
	zoo, err := ZooFailover()
	if err != nil {
		return nil, err
	}
	return append(rows, zoo...), nil
}

// FailoverRun measures one case.
func FailoverRun(c FailoverCase) (Row, error) {
	t := topo.FatTree(c.K, topo.Gbps)
	pol, err := merlin.ParsePolicy(tenantPolicy(t, c.K, c.GuaranteesPerTenant), t)
	if err != nil {
		return Row{}, err
	}
	opts := merlin.Options{NoDefault: true}
	comp := merlin.NewCompiler(t, nil, opts)
	if _, err := comp.Compile(pol); err != nil {
		return Row{}, fmt.Errorf("warm build: %w", err)
	}
	a, b, err := failureTarget(t, comp.Result().Paths["t0g0"])
	if err != nil {
		return Row{}, err
	}

	// Cold baseline: a fresh compile against a fresh topology carrying the
	// same failure — what a controller without the incremental pipeline
	// pays between detecting the failure and having new configurations.
	t2 := topo.FatTree(c.K, topo.Gbps)
	if _, err := t2.SetLinkState(t2.MustLookup(a), t2.MustLookup(b), false); err != nil {
		return Row{}, err
	}
	coldStart := time.Now()
	cold, err := merlin.Compile(pol, t2, nil, opts)
	if err != nil {
		return Row{}, fmt.Errorf("cold recompile: %w", err)
	}
	coldMS := ms(time.Since(coldStart))

	// Incremental: the failure event through the warm compiler.
	before := comp.Stats()
	failStart := time.Now()
	diff, err := comp.ApplyTopo(merlin.LinkFailure(a, b))
	if err != nil {
		return Row{}, fmt.Errorf("failover update: %w", err)
	}
	failMS := ms(time.Since(failStart))
	after := comp.Stats()

	// Correctness: the incremental result must match the cold recompile
	// bit for bit — the touched shard re-solves the same deterministic
	// model, the untouched shards' cached optima equal what the cold
	// solver finds — and no surviving path may cross the failed cable.
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
	if resolved != 1 || reused != c.K-1 {
		return Row{}, fmt.Errorf("failure re-entered %d shards (reused %d), want 1 (%d): recovery is not shard-local",
			resolved, reused, c.K-1)
	}
	install, remove := diff.Size()
	if install == 0 || remove == 0 {
		return Row{}, fmt.Errorf("failover produced an empty reroute diff")
	}

	speedup := 0.0
	if failMS > 0 {
		speedup = coldMS / failMS
	}
	return row(c.Name,
		"requests", fmt.Sprint(c.K*c.GuaranteesPerTenant),
		"cold_ms", fmt.Sprintf("%.1f", coldMS),
		"failover_ms", fmt.Sprintf("%.2f", failMS),
		"speedup", fmt.Sprintf("%.1f", speedup),
		"shards_resolved", fmt.Sprint(resolved),
		"shards_reused", fmt.Sprint(reused),
		"graphs_invalidated", fmt.Sprint(after.AnchoredInvalidated-before.AnchoredInvalidated),
		"diff_install", fmt.Sprint(install),
		"diff_remove", fmt.Sprint(remove),
	), nil
}
