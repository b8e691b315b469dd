package main

import (
	"fmt"
	"math/rand"
	"time"

	"merlin"
	"merlin/internal/corpus"
	"merlin/internal/policy"
	"merlin/internal/topo"
)

// zooSpec pins the zoo-churn scenario: 150 nodes, 6 tenants × 4
// region-confined guarantees, a balanced 12-event failure schedule.
var zooSpec = corpus.Spec{Topo: "zoo-14", Suite: "tenants", Seed: 4, Failures: true, Tenants: 6, Guarantees: 4, Episodes: 6}

// zooOpts is the configuration the sweep and the existing experiments use.
var zooOpts = merlin.Options{NoDefault: true}

// zooCheckEvery is the op spacing of the cold-compile checkpoints.
const zooCheckEvery = 100

// zooRates are the guarantee rates a rate-only update draws from, the
// corpus tenants suite's own range.
var zooRates = []float64{5, 10, 15, 20, 25}

// zoo is one warm controller and the op stream driving it. The stream
// cycles: a rate-only Update of a seeded statement, Update removing the
// statement at the head of the policy, Update adding it back at the tail,
// and ApplyTopo of the next schedule event. After len(statements)×4 ops
// (one epoch) the statement order is back where it started and the
// schedule has run whole cycles, so the topology is pristine.
type zoo struct {
	sc      *corpus.Scenario
	c       *merlin.Compiler
	stmts   map[string]merlin.Statement
	order   []string
	rate    map[string]float64
	region  map[string]map[string]bool
	removed string
	rng     *rand.Rand
	step    int
	ev      int
}

func (z *zoo) epoch() int { return 4 * len(z.stmts) }

func newZoo(seed int64) (*zoo, error) {
	sc, err := corpus.Generate(zooSpec)
	if err != nil {
		return nil, err
	}
	if len(sc.Schedule) == 0 || len(sc.Guarantee) == 0 {
		return nil, fmt.Errorf("scenario %s has no schedule or guarantees", sc.Name)
	}
	pol, err := merlin.ParsePolicy(sc.PolicyText, sc.Topology)
	if err != nil {
		return nil, err
	}
	z := &zoo{
		sc: sc, stmts: map[string]merlin.Statement{}, rate: map[string]float64{},
		region: map[string]map[string]bool{}, rng: rand.New(rand.NewSource(seed)),
	}
	for _, s := range pol.Statements {
		z.stmts[s.ID] = s
		z.order = append(z.order, s.ID)
	}
	for _, g := range sc.Guarantee {
		z.rate[g.ID] = g.RateBps
		z.region[g.ID] = map[string]bool{}
		for _, n := range g.Region {
			z.region[g.ID][n] = true
		}
	}
	z.c = merlin.NewCompiler(sc.Topology, merlin.Placement(sc.Placement), zooOpts)
	if _, err := z.c.Compile(pol); err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return z, nil
}

// formula renders the current rates as the policy's conjunction of min
// terms, over the given statement order, skipping one statement.
func (z *zoo) formula(order []string, skip string) policy.Formula {
	terms := make([]policy.Formula, 0, len(order))
	for _, id := range order {
		if id != skip {
			terms = append(terms, policy.Min{Expr: policy.BandExpr{IDs: []string{id}}, Rate: z.rate[id]})
		}
	}
	return policy.ConjFormula(terms...)
}

// next runs the stream's next op and returns its kind.
func (z *zoo) next(e *env) (kind string, d time.Duration, err error) {
	switch z.step % 4 {
	case 0:
		id := z.order[z.rng.Intn(len(z.order))]
		r := z.rate[id]
		for r == z.rate[id] {
			r = zooRates[z.rng.Intn(len(zooRates))] * topo.Mbps
		}
		z.rate[id] = r
		delta := merlin.Delta{Formula: z.formula(z.order, "")}
		kind = "update"
		d = e.tr.call("merlin.Compiler.Update", func() { _, err = z.c.Update(delta) })
	case 1:
		z.removed = z.order[0]
		delta := merlin.Delta{Remove: []string{z.removed}, Formula: z.formula(z.order, z.removed)}
		kind = "update"
		d = e.tr.call("merlin.Compiler.Update", func() { _, err = z.c.Update(delta) })
	case 2:
		order := append(append([]string(nil), z.order[1:]...), z.removed)
		delta := merlin.Delta{Add: []merlin.Statement{z.stmts[z.removed]}, Formula: z.formula(order, "")}
		kind = "update"
		d = e.tr.call("merlin.Compiler.Update", func() { _, err = z.c.Update(delta) })
		if err == nil {
			z.order, z.removed = order, ""
		}
	case 3:
		ev := z.sc.Schedule[z.ev%len(z.sc.Schedule)].Event
		z.ev++
		kind = "topo"
		d = e.tr.call("merlin.Compiler.ApplyTopo", func() { _, err = z.c.ApplyTopo(ev) })
	}
	z.step++
	return kind, d, err
}

// checkPaths verifies every present guarantee's path stays inside its
// region and crosses only live cables and switches.
func (z *zoo) checkPaths() string {
	res := z.c.Result()
	t := z.c.Topology()
	for _, id := range z.order {
		if id == z.removed {
			if _, ok := res.Paths[id]; ok {
				return fmt.Sprintf("removed statement %s still has a path", id)
			}
			continue
		}
		path := res.Paths[id]
		if len(path) < 2 {
			return fmt.Sprintf("guarantee %s has no path", id)
		}
		var prev merlin.NodeID = -1
		for _, name := range path {
			if !z.region[id][name] {
				return fmt.Sprintf("guarantee %s leaves its region at %s", id, name)
			}
			n, ok := t.Lookup(name)
			if !ok || !t.NodeIsUp(n) {
				return fmt.Sprintf("guarantee %s crosses missing or down node %s", id, name)
			}
			if prev >= 0 {
				l, ok := t.FindLink(prev, n)
				if !ok || !t.LinkIsUp(l.ID) {
					return fmt.Sprintf("guarantee %s crosses down cable %s-%s", id, t.Node(prev).Name, name)
				}
			}
			prev = n
		}
	}
	return ""
}

// checkCold compares the warm outputs with a cold compile of the same
// policy on a fresh topology carrying the same dynamic state, and runs the
// corpus simulator's capacity and min-rate check on the warm paths.
func (z *zoo) checkCold() string {
	snap, err := z.c.Snapshot()
	if err != nil {
		return fmt.Sprintf("snapshot: %v", err)
	}
	t, err := corpus.BuildTopo(zooSpec.Topo)
	if err != nil {
		return err.Error()
	}
	if err := merlin.ApplyTopoState(t, merlin.CaptureTopoState(z.c.Topology())); err != nil {
		return fmt.Sprintf("apply topo state: %v", err)
	}
	pol, err := merlin.ParsePolicy(snap.Policy, t)
	if err != nil {
		return fmt.Sprintf("reparse: %v", err)
	}
	ref, err := merlin.Compile(pol, t, merlin.Placement(z.sc.Placement), zooOpts)
	if err != nil {
		return fmt.Sprintf("cold compile: %v", err)
	}
	warm := z.c.Result()
	if digest(warm) != digest(ref) {
		return "warm outputs differ from a cold compile of the same state"
	}
	if z.removed != "" {
		return ""
	}
	sc := *z.sc
	sc.Traffic = nil
	for _, f := range z.sc.Traffic {
		if r, ok := z.rate[f.Stmt]; ok {
			f.MinBps, f.DemandBps = r, 1.5*r
		}
		sc.Traffic = append(sc.Traffic, f)
	}
	net, err := sc.BuildNetwork(warm.Paths)
	if err != nil {
		return fmt.Sprintf("sim: %v", err)
	}
	net.Allocate()
	if err := net.CheckCapacities(); err != nil {
		return fmt.Sprintf("sim: %v", err)
	}
	for _, f := range net.Flows {
		if f.MinRate > 0 && f.Rate < f.MinRate-1 {
			return fmt.Sprintf("sim: flow %s allocated %.0f below its %.0f guarantee", f.ID, f.Rate, f.MinRate)
		}
	}
	return ""
}

// runZooChurn measures the warm op stream. Every setup warms the caches
// with one full epoch; the measured stream then runs until the window
// closes and on to the end of its epoch, so every run ends with the
// original statement order on the pristine topology.
func runZooChurn(e *env) error {
	var z *zoo
	for i := 0; i < setupRuns; i++ {
		err := e.timeSetup(func() (err error) {
			if z, err = newZoo(e.seed); err != nil {
				return err
			}
			for z.step < z.epoch() {
				if _, _, err := z.next(e); err != nil {
					return fmt.Errorf("warm-up op %d: %w", z.step, err)
				}
			}
			if msg := z.checkCold(); msg != "" {
				return fmt.Errorf("warm-up: %s", msg)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	t := z.c.Topology()
	l := newLedger(z.epoch())
	var rss rssPeaks
	mem := startMem()
	start := time.Now()
	var prev map[string]merlin.Artifact
	for op := 0; op == 0 || !e.deadline(start) || z.step%z.epoch() != 0; op++ {
		e.tr.beginOp("op.zoo", op)
		var before merlin.CompilerStats
		if e.trace {
			before = z.c.Stats()
		}
		rss.before()
		kind, d, err := z.next(e)
		rss.after()
		e.attempted++
		if err != nil {
			e.fail("op %d (%s): %v", op, kind, err)
			e.tr.endOp()
			continue
		}
		e.lat.add(kind, d)
		e.check(fmt.Sprintf("op %d (%s)", op, kind), z.checkPaths)
		if e.trace {
			res := z.c.Result()
			l.stats(before, z.c.Stats())
			l.timing(res.Timing)
			pol := &merlin.Policy{Statements: res.Policy.Statements, Formula: res.Policy.Formula}
			if err := probePolicy(e, l, t, pol.String(), pol, false); err != nil {
				e.fail("op %d: probe: %v", op, err)
			}
			if err := probeCodegen(e, l, t, res, prev); err != nil {
				e.fail("op %d: probe: %v", op, err)
			}
			prev = res.Outputs
			l.endOp()
		}
		e.tr.endOp()
		if (op+1)%zooCheckEvery == 0 {
			e.check(fmt.Sprintf("checkpoint after op %d", op), z.checkCold)
		}
	}
	e.loop = time.Since(start)
	// Restore the scenario's rates, so the final outputs (and
	// emitted_entries) are the same at every seed.
	for _, g := range z.sc.Guarantee {
		z.rate[g.ID] = g.RateBps
	}
	e.attempted++
	if _, err := z.c.Update(merlin.Delta{Formula: z.formula(z.order, "")}); err != nil {
		e.fail("restoring rates: %v", err)
	} else if msg := z.checkCold(); msg != "" {
		e.fail("final check: %s", msg)
	}
	e.out.set("emitted_entries", float64(entries(z.c.Result())), "count")
	if err := rss.report(e.out); err != nil {
		return err
	}
	if e.trace {
		l.report(e.out)
		mem.report(e.out, len(e.lat["op"]))
	}
	return nil
}
