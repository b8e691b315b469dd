package main

import (
	"fmt"
	"time"

	"merlin"
	"merlin/internal/codegen"
	"merlin/internal/policy"
	"merlin/internal/pred"
	"merlin/internal/ternary"
	"merlin/internal/topo"
)

// ledger accumulates the traced run's per-layer numbers. Times are the
// mean over every reading taken in the run; counts are summed over
// the first window ops only, a prefix fixed per workload, so that they
// repeat exactly across runs at one seed whatever the machine's speed.
type ledger struct {
	window int
	ops    int // ops folded in so far
	times  map[string]float64
	reads  map[string]int
	counts map[string]float64
	order  []string
}

func newLedger(window int) *ledger {
	return &ledger{window: window, times: map[string]float64{}, reads: map[string]int{}, counts: map[string]float64{}}
}

func (l *ledger) note(name string) {
	if _, t := l.times[name]; t {
		return
	}
	if _, c := l.counts[name]; c {
		return
	}
	l.order = append(l.order, name)
}

// time adds one reading of a per-layer time.
func (l *ledger) time(name string, d time.Duration) {
	l.note(name)
	l.times[name] += ms(d)
	l.reads[name]++
}

// count adds n to a windowed counter; outside the window it only
// registers the name.
func (l *ledger) count(name string, n float64) {
	l.note(name)
	if l.ops < l.window {
		l.counts[name] += n
	} else if _, ok := l.counts[name]; !ok {
		l.counts[name] = 0
	}
}

// endOp closes one op.
func (l *ledger) endOp() { l.ops++ }

// report writes every per-layer metric into out.
func (l *ledger) report(out *metrics) {
	for _, name := range l.order {
		if v, ok := l.times[name]; ok {
			out.set(name, v/float64(l.reads[name]), "ms")
		} else {
			out.set(name, l.counts[name], "count")
		}
	}
	ratio := func(name string, num, den float64) {
		if den > 0 {
			out.set(name, num/den, "ratio")
		} else {
			out.set(name, 0, "ratio")
		}
	}
	c := l.counts
	ratio("provision.reuse_ratio", c["provision.shards_reused"],
		c["provision.shards_solved"]+c["provision.shards_warm"]+c["provision.shards_reused"])
	ratio("codegen.patch_ratio", c["codegen.patched_codegens"], c["codegen.patched_codegens"]+c["codegen.full_codegens"])
}

// timing folds one Result.Timing into the stage readings.
func (l *ledger) timing(t merlin.Timing) {
	l.time("policy.stage_ms", t.Preprocess)
	l.time("logical.stmt_phase_ms", t.GraphBuild)
	l.time("provision.construct_ms", t.LPConstruct)
	l.time("provision.solve_ms", t.LPSolve)
	l.time("sinktree.stage_ms", t.Rateless)
	l.time("codegen.stage_ms", t.Codegen)
}

// stats folds a Compiler.Stats delta into the counters.
func (l *ledger) stats(before, after merlin.CompilerStats) {
	d := func(a, b int) float64 { return float64(b - a) }
	l.count("logical.anchored_builds", d(before.AnchoredBuilds, after.AnchoredBuilds))
	l.count("logical.anchored_invalidated", d(before.AnchoredInvalidated, after.AnchoredInvalidated))
	l.count("logical.minimized_builds", d(before.GraphBuilds, after.GraphBuilds))
	l.count("logical.graphs_patched", d(before.GraphsPatched, after.GraphsPatched))
	l.count("sinktree.tree_builds", d(before.TreeBuilds, after.TreeBuilds))
	l.count("sinktree.trees_kept", d(before.TreesKept, after.TreesKept))
	l.count("provision.shards_solved", d(before.ShardsSolved, after.ShardsSolved))
	l.count("provision.shards_warm", d(before.ShardsWarm, after.ShardsWarm))
	l.count("provision.shards_reused", d(before.ShardsReused, after.ShardsReused))
	l.count("netflow.shards", d(before.NetflowShards, after.NetflowShards))
	l.count("mip.bnb_nodes", d(before.BnBNodes, after.BnBNodes))
	l.count("codegen.patched_codegens", d(before.PatchedCodegens, after.PatchedCodegens))
	l.count("codegen.full_codegens", d(before.FullCodegens, after.FullCodegens))
	l.count("verify.cache_hits", d(before.VerifyCacheHits, after.VerifyCacheHits))
	l.count("verify.rejected", d(before.ProposalsRejected, after.ProposalsRejected))
}

// probePolicy times the policy and pred layers on one op's policy: parse
// of its source, the §2.1 pre-processor with the workload's AddDefault,
// localization, predicate rendering (the cost stmtFingerprint pays), and
// positive-cube expansion over the preprocessed statements.
func probePolicy(e *env, l *ledger, t *merlin.Topology, src string, pol *merlin.Policy, addDefault bool) error {
	var err error
	l.time("policy.parse_ms", e.tr.call("policy.Parse", func() { _, err = merlin.ParsePolicy(src, t) }))
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	var work *policy.Policy
	l.time("policy.preprocess_ms", e.tr.call("policy.Preprocess", func() {
		work, err = policy.Preprocess(pol, policy.PreprocessOptions{AddDefault: addDefault})
	}))
	if err != nil {
		return fmt.Errorf("preprocess: %w", err)
	}
	l.time("policy.localize_ms", e.tr.call("policy.Localize", func() { _, err = policy.Localize(work.Formula, nil) }))
	if err != nil {
		return fmt.Errorf("localize: %w", err)
	}
	l.time("pred.render_ms", e.tr.call("pred.Format", func() {
		for _, s := range work.Statements {
			_ = pred.Format(s.Predicate)
		}
	}))
	// The totality default's predicate negates every other statement, so
	// its positive-cube expansion can exceed the expansion limit; such
	// statements count as overflows (the compiler lowers the default by
	// priority instead of by cubes).
	cubes, overflows := 0, 0
	l.time("pred.cubes_ms", e.tr.call("pred.PositiveCubes", func() {
		for _, s := range work.Statements {
			cs, err := pred.PositiveCubes(s.Predicate)
			if err != nil {
				overflows++
			}
			cubes += len(cs)
		}
	}))
	l.count("policy.statements", float64(len(work.Statements)))
	l.count("pred.cubes", float64(cubes))
	l.count("pred.cube_overflows", float64(overflows))
	return nil
}

// probeCodegen times every targeted backend's Emit on the op's lowered
// IR (EmitTernary over a fresh ternary expansion for v2 backends) and,
// when prev holds the previous op's artifacts, each backend's Diff from
// them.
func probeCodegen(e *env, l *ledger, t *merlin.Topology, res *merlin.Result, prev map[string]codegen.Artifact) error {
	l.count("codegen.ir_rules", float64(len(res.IR.Rules)))
	var diff time.Duration
	for _, name := range sortedKeys(res.Outputs) {
		b, ok := codegen.Lookup(name)
		if !ok {
			return fmt.Errorf("backend %s not registered", name)
		}
		var err error
		if te, ok := b.(codegen.TernaryEmitter); ok {
			opt := ternary.Options{}
			if m, ok := codegen.BackendModel(name, topo.Switch); ok {
				opt.SupportsRange = m.SupportsRange
			}
			var tables *codegen.TernaryTables
			l.time("ternary.expand_ms", e.tr.call("codegen.ExpandProgram", func() {
				tables, err = codegen.ExpandProgram(t, res.IR, opt)
			}))
			if err != nil {
				return fmt.Errorf("expand for %s: %w", name, err)
			}
			l.count("ternary.entries", float64(tables.Total))
			l.time("codegen.emit_ms."+name, e.tr.call("codegen.EmitTernary."+name, func() {
				_, err = te.EmitTernary(t, res.IR, tables)
			}))
		} else {
			l.time("codegen.emit_ms."+name, e.tr.call("codegen.Emit."+name, func() {
				_, err = b.Emit(t, res.IR)
			}))
		}
		if err != nil {
			return fmt.Errorf("emit %s: %w", name, err)
		}
		if prev != nil {
			diff += e.tr.call("codegen.Diff."+name, func() { b.Diff(prev[name], res.Outputs[name]) })
		}
	}
	if prev != nil {
		l.time("codegen.diff_ms", diff)
	}
	return nil
}

// entries counts every emitted configuration entry across backends.
func entries(res *merlin.Result) int {
	n := 0
	for _, a := range res.Outputs {
		n += len(a.Entries())
	}
	return n
}
