package merlin

import (
	"fmt"
	"runtime"
	"testing"

	"merlin/internal/p4"
	"merlin/internal/policy"
	"merlin/internal/tcam"
)

// allPairsAllocBudget bounds the bytes a cold all-pairs compile may
// allocate per statement. The totality default statement's predicate,
// !(p1 or … or pN), grows with the policy; rendering it, checking that the
// policy needs it, and expanding it for endpoints are each linear, costing
// a few KB per statement in all. A quadratic or exponential pass over it
// costs hundreds of KB per statement, so the bound catches such a
// regression on any machine, however fast.
const allPairsAllocBudget = 32 << 10

// TestAllPairsAllocBudget compiles the Fig. 8c all-pairs policy, totality
// default included, with every bundled backend and checks the bytes
// allocated per statement (runtime.MemStats.TotalAlloc).
func TestAllPairsAllocBudget(t *testing.T) {
	targets := append(DefaultTargets(), p4.Name, tcam.Name)
	for _, k := range []int{4, 6} {
		t.Run(fmt.Sprintf("fattree-k%d", k), func(t *testing.T) {
			tp := FatTree(k, Gbps)
			pol, err := ParsePolicy("foreach (s,d) in cross(hosts,hosts): .*", tp)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCompiler(tp, nil, Options{Targets: targets})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := c.Compile(pol)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			n := len(res.Policy.Statements)
			if last := res.Policy.Statements[n-1].ID; last != policy.DefaultStatementID {
				t.Fatalf("last statement %q, want the totality default %q", last, policy.DefaultStatementID)
			}
			perStmt := (after.TotalAlloc - before.TotalAlloc) / uint64(n)
			t.Logf("%d statements, %d B allocated per statement", n, perStmt)
			if perStmt > allPairsAllocBudget {
				t.Errorf("compile allocated %d B per statement, budget %d B", perStmt, allPairsAllocBudget)
			}
		})
	}
}
