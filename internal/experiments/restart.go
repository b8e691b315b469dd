package experiments

import (
	"encoding/json"
	"fmt"
	"merlin/internal/codegen"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"

	"merlin/internal/journal"
	"merlin/internal/topo"

	merlin "merlin"
)

// RestartCase is one controller-restart measurement: a multi-tenant
// fat-tree workload whose operation history — negotiation-style rate
// movements plus topology capacity churn — sits in a merlind-format
// journal, restarted two ways. Cold replays the whole journal from
// genesis through a fresh compiler; warm loads the latest snapshot (one
// compile of the canonical policy against the restored topology) and
// replays only the records past it. The ratio is the price of not
// snapshotting, which is what the merlind daemon's snapshot cadence
// buys down.
type RestartCase struct {
	Name string
	K    int // fat-tree arity; one tenant per pod
	// GuaranteesPerTenant is the number of intra-pod guarantees each
	// tenant requests.
	GuaranteesPerTenant int
	// History is the number of journal records between genesis and the
	// snapshot; Tail is the number after it (what warm restart replays).
	History int
	Tail    int
}

// RestartCases returns the measured workloads. The headline case is the
// acceptance target: a k=8 fat tree with a 1000-record history and a
// 10-record tail, where warm restart must beat cold replay by ≥5x —
// the snapshot collapses 600 incremental updates into one compile.
func RestartCases() []RestartCase {
	return []RestartCase{
		{Name: "fattree-k8-restart", K: 8, GuaranteesPerTenant: 6, History: 1000, Tail: 10},
	}
}

// restartHistory appends one workload record to the journal and applies
// it to the live compiler, keeping the two in lockstep the way merlind
// does (journal in apply order, ack after append). Record i is a
// negotiation-style rate movement for tenant i%k — a formula-only delta
// that re-solves one provisioning shard — except every 25th, which is a
// capacity wobble on an access link in that tenant's pod.
func restartHistory(c *merlin.Compiler, store *journal.Store, t *topo.Topology, cs RestartCase, i int, rates []int) error {
	p := i % cs.K
	if i%25 == 24 {
		host := fmt.Sprintf("h%d_0_0", p)
		edge := fmt.Sprintf("edge%d_0", p)
		capacity := topo.Gbps
		if i%50 == 24 {
			capacity = 900 * topo.Mbps
		}
		batch := []merlin.TopoEvent{merlin.CapacityChange(edge, host, capacity)}
		applied := c.ApplyTopoBatch(batch, nil, func(err error) {})
		if len(applied) == 0 {
			return fmt.Errorf("record %d: capacity change rejected", i)
		}
		payload, err := json.Marshal(merlin.WireTopoEvents(applied))
		if err != nil {
			return err
		}
		_, err = store.Append(merlin.RecTopo, payload)
		return err
	}
	rates[p] = 10 + (rates[p]-10+1)%40 // walk the tenant's base rate
	w := merlin.WireDelta{Formula: restartFormula(cs.K, cs.GuaranteesPerTenant, rates)}
	d, err := c.DecodeDelta(w)
	if err != nil {
		return fmt.Errorf("record %d: %w", i, err)
	}
	if _, err := c.Update(d); err != nil {
		return fmt.Errorf("record %d: %w", i, err)
	}
	payload, err := json.Marshal(w)
	if err != nil {
		return err
	}
	_, err = store.Append(merlin.RecDelta, payload)
	return err
}

// restartFormula renders the global min-guarantee formula with each
// tenant p's guarantees based at rates[p] Mbps.
func restartFormula(k, n int, rates []int) string {
	var terms []string
	for p := 0; p < k; p++ {
		for g := 0; g < n; g++ {
			terms = append(terms, fmt.Sprintf("min(t%dg%d, %dMbps)", p, g, rates[p]+5*g))
		}
	}
	return strings.Join(terms, " and ")
}

// Restart measures each case: cold full-journal replay versus warm
// snapshot-plus-tail recovery, cross-checking that both restarts land
// byte-identical to the live compiler the history was recorded on.
func Restart() ([]Row, error) {
	var rows []Row
	for _, c := range RestartCases() {
		r, err := RestartRun(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		rows = append(rows, r)
	}
	jr, err := JournalThroughput()
	if err != nil {
		return nil, err
	}
	return append(rows, jr...), nil
}

// RestartRun measures one case.
func RestartRun(c RestartCase) (Row, error) {
	dir, err := os.MkdirTemp("", "merlin-restart-*")
	if err != nil {
		return Row{}, err
	}
	defer os.RemoveAll(dir)

	// Record the history the way merlind does: genesis policy record,
	// then History+Tail operations applied to a live compiler and
	// journaled in apply order. fsync stays off — the journal's write
	// amplification is measured separately; restart cost is compute.
	t := topo.FatTree(c.K, topo.Gbps)
	genesis := tenantPolicy(t, c.K, c.GuaranteesPerTenant)
	pol, err := merlin.ParsePolicy(genesis, t)
	if err != nil {
		return Row{}, err
	}
	opts := merlin.Options{NoDefault: true}
	live := merlin.NewCompiler(t, nil, opts)
	if _, err := live.Compile(pol); err != nil {
		return Row{}, fmt.Errorf("genesis compile: %w", err)
	}
	store, _, err := journal.Open(dir, journal.Params{NoSync: true})
	if err != nil {
		return Row{}, err
	}
	if _, err := store.Append(merlin.RecPolicy, []byte(pol.String())); err != nil {
		return Row{}, err
	}
	rates := make([]int, c.K)
	for p := range rates {
		rates[p] = 10
	}
	var snapPayload []byte
	var snapSeq uint64
	for i := 0; i < c.History+c.Tail; i++ {
		if err := restartHistory(live, store, t, c, i, rates); err != nil {
			return Row{}, err
		}
		if i == c.History-1 {
			snap, err := live.Snapshot()
			if err != nil {
				return Row{}, err
			}
			snapSeq = store.LastSeq()
			snap.Seq = snapSeq
			if snapPayload, err = snap.Marshal(); err != nil {
				return Row{}, err
			}
		}
	}
	if err := store.Close(); err != nil {
		return Row{}, err
	}

	// Cold restart: open the journal — no snapshot exists yet — and
	// replay every record from genesis through a fresh compiler.
	coldStart := time.Now()
	cold, records, err := restartReplay(c, dir, opts)
	if err != nil {
		return Row{}, fmt.Errorf("cold restart: %w", err)
	}
	coldMS := ms(time.Since(coldStart))
	if records != c.History+c.Tail+1 {
		return Row{}, fmt.Errorf("cold restart replayed %d records, want %d", records, c.History+c.Tail+1)
	}

	// Install the snapshot the daemon would have taken at the cadence
	// boundary, then measure the warm path: snapshot restore + tail.
	store2, _, err := journal.Open(dir, journal.Params{NoSync: true})
	if err != nil {
		return Row{}, err
	}
	if err := store2.Snapshot(snapSeq, snapPayload); err != nil {
		return Row{}, err
	}
	if err := store2.Close(); err != nil {
		return Row{}, err
	}
	warmStart := time.Now()
	warm, records, err := restartReplay(c, dir, opts)
	if err != nil {
		return Row{}, fmt.Errorf("warm restart: %w", err)
	}
	warmMS := ms(time.Since(warmStart))
	if want := c.Tail; records != want {
		return Row{}, fmt.Errorf("warm restart replayed %d records, want %d (snapshot not honored)", records, want)
	}

	// Correctness: both restarts must land exactly where the live
	// compiler did — the snapshot is canonical inputs, not cached
	// outputs, so divergence here means the restore path lost state.
	for label, got := range map[string]*merlin.Result{"cold": cold.Result(), "warm": warm.Result()} {
		want := live.Result()
		if !reflect.DeepEqual(got.Output, want.Output) || !reflect.DeepEqual(got.Outputs[codegen.TargetHost], want.Outputs[codegen.TargetHost]) ||
			!reflect.DeepEqual(got.Paths, want.Paths) || !reflect.DeepEqual(got.Allocations, want.Allocations) {
			return Row{}, fmt.Errorf("%s restart diverges from the live compiler", label)
		}
	}

	speedup := 0.0
	if warmMS > 0 {
		speedup = coldMS / warmMS
	}
	return row(c.Name,
		"records", fmt.Sprint(c.History+c.Tail+1),
		"tail", fmt.Sprint(c.Tail),
		"cold_ms", fmt.Sprintf("%.1f", coldMS),
		"warm_ms", fmt.Sprintf("%.1f", warmMS),
		"speedup", fmt.Sprintf("%.1f", speedup),
		// The gate reads "speedup"; this alias is the metric name the
		// roadmap and PERFORMANCE.md refer to.
		"restart_warm_vs_cold", fmt.Sprintf("%.1f", speedup),
	), nil
}

// restartReplay is the measured recovery path, shared by both arms:
// open the journal, restore the snapshot if one exists, replay the
// returned records. It returns the recovered compiler and how many
// records were replayed.
func restartReplay(c RestartCase, dir string, opts merlin.Options) (*merlin.Compiler, int, error) {
	store, rec, err := journal.Open(dir, journal.Params{NoSync: true})
	if err != nil {
		return nil, 0, err
	}
	defer store.Close()
	t := topo.FatTree(c.K, topo.Gbps)
	var comp *merlin.Compiler
	if rec.Snapshot != nil {
		snap, err := merlin.ParseSnapshot(rec.Snapshot)
		if err != nil {
			return nil, 0, err
		}
		if comp, _, err = merlin.RestoreCompiler(t, snap, opts); err != nil {
			return nil, 0, err
		}
	} else {
		comp = merlin.NewCompiler(t, nil, opts)
	}
	for i, r := range rec.Records {
		if err := merlin.ApplyJournalRecord(comp, r.Kind, r.Data); err != nil {
			return nil, 0, fmt.Errorf("record %d (seq %d): %w", i, r.Seq, err)
		}
	}
	return comp, len(rec.Records), nil
}

// JournalThroughput measures the journal's append paths on this
// machine's filesystem: group-committed concurrent appends versus the
// serial one-fsync-per-append path. Absolute records/sec depends on the
// backing store (tmpfs fsyncs are nearly free, disks are not), so these
// rows are informational — no speedup metric, nothing gated.
func JournalThroughput() ([]Row, error) {
	const n, writers = 2000, 8
	payload := make([]byte, 256)
	run := func(params journal.Params, concurrent bool) (float64, uint64, error) {
		dir, err := os.MkdirTemp("", "merlin-journal-*")
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		store, _, err := journal.Open(dir, params)
		if err != nil {
			return 0, 0, err
		}
		defer store.Close()
		start := time.Now()
		if concurrent {
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n/writers; i++ {
						if _, err := store.Append(merlin.RecDelta, payload); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				return 0, 0, err
			}
		} else {
			for i := 0; i < n; i++ {
				if _, err := store.Append(merlin.RecDelta, payload); err != nil {
					return 0, 0, err
				}
			}
		}
		elapsed := time.Since(start).Seconds()
		return float64(n) / elapsed, store.Stats().Commits, nil
	}
	grouped, commits, err := run(journal.Params{}, true)
	if err != nil {
		return nil, fmt.Errorf("journal group-commit: %w", err)
	}
	serial, _, err := run(journal.Params{NoGroupCommit: true}, false)
	if err != nil {
		return nil, fmt.Errorf("journal serial: %w", err)
	}
	return []Row{row("journal-fsync",
		"records", fmt.Sprint(n),
		"group_commit_rps", fmt.Sprintf("%.0f", grouped),
		"group_commit_fsyncs", fmt.Sprint(commits),
		"serial_rps", fmt.Sprintf("%.0f", serial),
	)}, nil
}
