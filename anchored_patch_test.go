package merlin_test

import (
	"testing"

	"merlin"
	"merlin/internal/corpus"
)

// TestFailurePatchesAnchoredGraphs replays a zoo-14 tenants failure
// schedule through a warm compiler. Every failure must repair the
// guarantees' anchored product graphs in place — no anchored build on
// the failure tick — and every cached graph must then equal a cold build
// on the degraded topology. Recoveries evict the graphs an outage
// touched, and rebuilds must equal cold builds as well.
func TestFailurePatchesAnchoredGraphs(t *testing.T) {
	sc, err := corpus.Generate(corpus.Spec{Topo: "zoo-14", Suite: "tenants", Seed: 4, Failures: true, Tenants: 6, Guarantees: 4, Episodes: 6})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
	if err != nil {
		t.Fatal(err)
	}
	c := merlin.NewCompiler(sc.Topology, merlin.Placement(sc.Placement), merlin.Options{NoDefault: true})
	if _, err := c.Compile(pol); err != nil {
		t.Fatal(err)
	}
	patched, failures := 0, 0
	for i, ev := range sc.Schedule {
		before := c.Stats()
		if _, err := c.ApplyTopo(ev.Event); err != nil {
			t.Fatalf("event %d (%s): %v", i, ev.Event.Kind, err)
		}
		after := c.Stats()
		down := ev.Event.Kind == merlin.LinkDown || ev.Event.Kind == merlin.SwitchDown
		if down {
			failures++
			patched += after.AnchoredInvalidated - before.AnchoredInvalidated
			if after.AnchoredBuilds != before.AnchoredBuilds {
				t.Fatalf("event %d (%s %s): %d anchored builds on a failure tick, want 0 (patched in place)",
					i, ev.Event.Kind, ev.Event.A, after.AnchoredBuilds-before.AnchoredBuilds)
			}
		}
		n, err := merlin.CheckAnchoredCold(c)
		if err != nil {
			t.Fatalf("event %d (%s %s-%s): %v", i, ev.Event.Kind, ev.Event.A, ev.Event.B, err)
		}
		if n != len(sc.Guarantee) {
			t.Fatalf("event %d: %d anchored graphs cached, want %d", i, n, len(sc.Guarantee))
		}
	}
	if failures == 0 || patched == 0 {
		t.Fatalf("schedule exercised %d failures patching %d anchored graphs; want both nonzero", failures, patched)
	}
	t.Logf("%d failures patched %d anchored graphs", failures, patched)
}
