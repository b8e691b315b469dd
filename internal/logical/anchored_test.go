package logical_test

import (
	"runtime"
	"strings"
	"testing"

	"merlin/internal/corpus"
	. "merlin/internal/logical"
	"merlin/internal/regex"
	"merlin/internal/topo"
	"merlin/internal/zoo"
)

// zooRegion returns the zoo-14 topology and the guarantee shape of the
// corpus tenants suite on it: the first tenant region's star
// (s0|…|zh84_0)*, 31 symbols over a 150-location alphabet, anchored
// between the region's first and last hosts.
func zooRegion(tb testing.TB) (t *topo.Topology, e regex.Expr, src, dst string) {
	tb.Helper()
	t = zoo.Generate(14, 1)
	names, hosts := corpus.Regions(t, 6)
	if len(names) == 0 || len(names[0]) != 31 || len(hosts[0]) < 2 {
		tb.Fatalf("zoo-14 regions changed shape: %v", names)
	}
	h := hosts[0]
	return t, regex.MustParse("( " + strings.Join(names[0], " | ") + " )*"), h[0], h[len(h)-1]
}

// Allocation budget of one anchored product-graph build on the zoo-14
// region star. Every tenant Update that re-adds a guarantee pays one, so
// it is held well below the per-symbol automata kernels' cost (3.46 MB and
// 21 500 allocations per build) — a kernel that goes back to stepping,
// keying or allocating per symbol blows it on any machine.
const (
	anchoredBytesBudget  = 1 << 20
	anchoredAllocsBudget = 4000
)

func TestBuildAnchoredAllocBudget(t *testing.T) {
	tp, e, src, dst := zooRegion(t)
	alpha := Alphabet(tp)
	build := func() *Graph {
		g, err := BuildAnchored(tp, e, alpha, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if build().ShortestPath() == nil {
		t.Fatalf("no %s→%s path inside the region", src, dst)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("BuildAnchored: %d B, %d allocations per build", bytes, allocs)
	if bytes > anchoredBytesBudget || allocs > anchoredAllocsBudget {
		t.Errorf("BuildAnchored allocated %d B in %d allocations per build, budget %d B and %d",
			bytes, allocs, anchoredBytesBudget, anchoredAllocsBudget)
	}
}

func BenchmarkBuildAnchoredZoo(b *testing.B) {
	tp, e, src, dst := zooRegion(b)
	alpha := Alphabet(tp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildAnchored(tp, e, alpha, src, dst); err != nil {
			b.Fatal(err)
		}
	}
}
