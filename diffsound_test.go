package merlin_test

import (
	"fmt"
	"testing"

	"merlin"
	"merlin/internal/codegen"
	"merlin/internal/corpus"
	"merlin/internal/policy"
)

// allTargets is every bundled backend: the four built-ins, p4, and tcam.
var allTargets = []string{"openflow", "tc", "click", "host", "p4", "tcam"}

// checkDiffSound asserts the diff moves every target from old to new
// exactly: per target, multiset(old entries) − Remove + Install equals
// multiset(new entries), and every removed entry was present.
func checkDiffSound(t *testing.T, label string, old, new *merlin.Result, d *merlin.Diff) {
	t.Helper()
	if len(d.Backends) != len(new.Outputs) {
		t.Fatalf("%s: diff covers %d targets, result has %d", label, len(d.Backends), len(new.Outputs))
	}
	for name, art := range new.Outputs {
		bd, ok := d.Backends[name]
		if !ok {
			t.Fatalf("%s: diff has no %s entry", label, name)
		}
		count := map[codegen.Entry]int{}
		for _, e := range old.Outputs[name].Entries() {
			count[e]++
		}
		for _, e := range bd.Remove {
			if count[e]--; count[e] < 0 {
				t.Fatalf("%s: %s removes an entry the old artifact lacks: %+v", label, name, e)
			}
		}
		for _, e := range bd.Install {
			count[e]++
		}
		for _, e := range art.Entries() {
			count[e]--
		}
		for e, n := range count {
			if n != 0 {
				t.Fatalf("%s: %s entry %+v off by %d after applying the diff", label, name, e, n)
			}
		}
	}
}

// TestDiffSoundness replays a zoo tenants scenario's failure schedule,
// statement churn, and caps-only ticks against a warm compiler targeting
// every bundled backend, and checks after each operation that the
// returned diff is exactly the entry-level delta between the results.
func TestDiffSoundness(t *testing.T) {
	sc, err := corpus.Generate(corpus.Spec{Topo: "zoo-14", Suite: "tenants", Seed: 2, Failures: true, Tenants: 3, Guarantees: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Schedule) == 0 {
		t.Fatal("scenario has no failure schedule")
	}
	pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
	if err != nil {
		t.Fatal(err)
	}
	c := merlin.NewCompiler(sc.Topology, merlin.Placement(sc.Placement), merlin.Options{NoDefault: true, Targets: allTargets})
	prev, err := c.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	step := func(label string, apply func() (*merlin.Diff, error)) {
		t.Helper()
		d, err := apply()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cur := c.Result()
		checkDiffSound(t, label, prev, cur, d)
		prev = cur
	}
	for i, ev := range sc.Schedule {
		step(fmt.Sprintf("event %d", i), func() (*merlin.Diff, error) { return c.ApplyTopo(ev.Event) })
	}
	first := pol.Statements[0]
	step("remove", func() (*merlin.Diff, error) { return c.Update(merlin.Delta{Remove: []string{first.ID}}) })
	step("re-add", func() (*merlin.Diff, error) { return c.Update(merlin.Delta{Add: []merlin.Statement{first}}) })
	// Caps-only ticks: cap one statement, move the cap, then lift it —
	// the patched-codegen path that re-emits only tc and host.
	base := c.Stats().PatchedCodegens
	for i, capMbps := range []float64{40, 25, 0} {
		f := pol.Formula
		if capMbps > 0 {
			f = policy.ConjFormula(f, policy.Max{Expr: policy.BandExpr{IDs: []string{first.ID}}, Rate: capMbps * merlin.Mbps})
		}
		step(fmt.Sprintf("cap tick %d", i), func() (*merlin.Diff, error) { return c.Update(merlin.Delta{Formula: f}) })
	}
	if c.Stats().PatchedCodegens == base {
		t.Fatal("no cap tick took the patched-codegen path")
	}
}
