package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"merlin/internal/topo"

	merlin "merlin"
)

// IncrementalCase is one incremental-vs-full recompilation measurement: a
// base policy, a variant reachable by a Delta, and the compile options.
type IncrementalCase struct {
	Name  string
	Build func() *topo.Topology
	// Policy builds the base (changed == false) or changed policy source.
	Policy func(t *topo.Topology, changed bool) string
	Opts   merlin.Options
	// ByteIdentical asserts the incremental output equals the full
	// compile's bit for bit. It holds for caps-only deltas (nothing moves
	// but tc commands); rate deltas re-solve the MIP, where a
	// warm-started simplex may legitimately land on a different — equally
	// optimal — vertex than a cold one.
	ByteIdentical bool
	// Guaranteed is the number of guaranteed statements, for the
	// non-byte-identical sanity check that each still has a path.
	Guaranteed int
}

// IncrementalCases returns the measured workloads. The headline case is
// the acceptance target: a single-statement allocation (cap) change on a
// fat-tree k=8 all-pairs policy, where the incremental compiler reuses
// every product graph, sink tree, and the provisioning solution, and
// patches only the tc commands. The k=4 case exercises the exact-MIP
// path: a guarantee's rate change re-solves the same model shape
// warm-started from the previous optimal basis.
func IncrementalCases() []IncrementalCase {
	guarPolicy := func(guar int, rates func(g int) (min, max string)) func(*topo.Topology, bool) string {
		return func(t *topo.Topology, changed bool) string {
			macs := t.Identities().MACs()
			var sb strings.Builder
			sb.WriteString(`foreach (s,d) in cross(hosts,hosts): .*` + "\n[")
			for g := 0; g < guar; g++ {
				i := g % len(macs)
				j := (g*5 + 1) % len(macs)
				if i == j {
					j = (j + 1) % len(macs)
				}
				min, max := rates(g)
				if changed && g == 0 {
					min, max = rates(-1) // the single-statement change
				}
				fmt.Fprintf(&sb, " g%d : (eth.src = %s and eth.dst = %s and tcp.dst = 7000) -> .* at min(%s) at max(%s) ;",
					g, macs[i], macs[j], min, max)
			}
			sb.WriteString("]")
			return sb.String()
		}
	}
	return []IncrementalCase{
		{
			// Single-statement cap change at k=8 scale: g0's cap moves
			// 200 → 150 Mbps. Guarantee rates are untouched, so the
			// (greedy) provisioning solution is reused outright.
			Name:  "fattree-k8-cap-change",
			Build: func() *topo.Topology { return topo.FatTree(8, topo.Gbps) },
			Policy: func(t *topo.Topology, changed bool) string {
				return guarPolicy(4, func(g int) (string, string) {
					if g < 0 {
						return "5Mbps", "150Mbps"
					}
					return "5Mbps", "200Mbps"
				})(t, changed)
			},
			Opts:          merlin.Options{NoDefault: true, Greedy: true},
			ByteIdentical: true,
			Guaranteed:    4,
		},
		{
			// Guarantee rate change at k=4 with the exact MIP: g0's
			// guarantee moves 5 → 6 Mbps, re-solved warm-started from the
			// previous optimal basis. NoNetflow pins the shards to the MIP
			// so the row keeps measuring the basis warm-start — the
			// network-simplex fast path has no basis to reuse and makes
			// the full compile nearly as cheap as the update.
			Name:  "fattree-k4-rate-change",
			Build: func() *topo.Topology { return topo.FatTree(4, topo.Gbps) },
			Policy: func(t *topo.Topology, changed bool) string {
				return guarPolicy(6, func(g int) (string, string) {
					if g < 0 {
						return "6Mbps", "200Mbps"
					}
					return "5Mbps", "200Mbps"
				})(t, changed)
			},
			Opts:       merlin.Options{NoDefault: true, NoNetflow: true},
			Guaranteed: 6,
		},
	}
}

// Incremental measures full-recompile versus Compiler.Update for each
// case and cross-checks that the incremental result matches a fresh
// compile of the changed policy.
func Incremental() ([]Row, error) {
	var rows []Row
	for _, c := range IncrementalCases() {
		r, err := IncrementalRun(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// IncrementalRun measures one case: the wall-clock of a cold full compile
// of the changed policy versus applying the change as a Delta on a warm
// Compiler.
func IncrementalRun(c IncrementalCase) (Row, error) {
	t := c.Build()
	base, err := merlin.ParsePolicy(c.Policy(t, false), t)
	if err != nil {
		return Row{}, err
	}
	changed, err := merlin.ParsePolicy(c.Policy(t, true), t)
	if err != nil {
		return Row{}, err
	}

	// Full: a cold compiler on the changed policy.
	fullStart := time.Now()
	full, err := merlin.Compile(changed, t, nil, c.Opts)
	if err != nil {
		return Row{}, err
	}
	fullMS := ms(time.Since(fullStart))

	// Incremental: warm compiler on the base policy, then the delta.
	comp := merlin.NewCompiler(t, nil, c.Opts)
	if _, err := comp.Compile(base); err != nil {
		return Row{}, err
	}
	updStart := time.Now()
	diff, err := comp.Update(merlin.Delta{Formula: changed.Formula})
	if err != nil {
		return Row{}, err
	}
	updMS := ms(time.Since(updStart))

	// Correctness: caps-only deltas must match the fresh compile bit for
	// bit; rate deltas re-solve, so check that every guarantee still has
	// a provisioned path and the configuration is non-degenerate.
	if c.ByteIdentical {
		if !reflect.DeepEqual(comp.Result().Output, full.Output) {
			return Row{}, fmt.Errorf("incremental output diverges from full compile")
		}
	} else {
		got := comp.Result()
		for g := 0; g < c.Guaranteed; g++ {
			id := fmt.Sprintf("g%d", g)
			if len(got.Paths[id]) == 0 {
				return Row{}, fmt.Errorf("incremental update lost the path for %s", id)
			}
		}
		if got.Counts().OpenFlow == 0 || got.Counts().Queues == 0 {
			return Row{}, fmt.Errorf("incremental update produced a degenerate configuration")
		}
	}
	install, remove := diff.Size()
	st := comp.Stats()
	speedup := 0.0
	if updMS > 0 {
		speedup = fullMS / updMS
	}
	return row(c.Name,
		"full_ms", fmt.Sprintf("%.1f", fullMS),
		"update_ms", fmt.Sprintf("%.2f", updMS),
		"speedup", fmt.Sprintf("%.1f", speedup),
		"diff_install", fmt.Sprint(install),
		"diff_remove", fmt.Sprint(remove),
		"patched_codegen", fmt.Sprint(st.PatchedCodegens),
		"warm_solves", fmt.Sprint(st.WarmSolves),
	), nil
}
