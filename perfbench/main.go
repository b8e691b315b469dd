// Command perfbench is the repository benchmark: three seeded workloads
// driven through the entry points users call, each checked for correct
// output, printing end-to-end metrics (untraced run) or the per-layer
// ledger (traced run).
//
//	allpairs-cold  repeated cold merlin.Compiler.Compile of the Fig. 8c
//	               all-pairs policy on fattree-k6, merlinc's default Options
//	               (totality default on), all six bundled backends
//	zoo-churn      one warm merlin.Compiler (Options{NoDefault: true}) on a
//	               corpus tenants scenario over zoo-14, cycling Update
//	               (rate, remove, add) and ApplyTopo of a balanced schedule
//	merlind-hub    the merlind binary on its shipped flags, driven over one
//	               keep-alive loopback connection with hub demand/tick
//	               rounds, /v1/topo events and tighter-cap proposals
//
// Load is one closed-loop caller. The workload seed drives the op stream
// and the sampled output checks; the corpus scenarios themselves are
// pinned by the specs in workloads.json, so runs at different seeds do the
// same kind and amount of work. Run through run.sh, which builds merlind
// and this program first:
//
//	bash perfbench/run.sh --workload zoo-churn --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is the JSON result. Every run also
// appends one record to <state>/ledger.jsonl; -summarize validates the
// records and prints medians and quartiles grouped by workload and metric,
// the tracing overhead (traced minus untraced), and any deterministic
// counter that failed to repeat exactly at one seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// spec is the subset of BENCHMARK.json the benchmark reads: which metrics
// each kind of run must print.
type spec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// env is one run's configuration and accumulating state.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	merlind  string // merlind binary
	state    string // scratch/state directory inside the checkout

	tr        *tracer
	out       *metrics
	lat       latencies
	attempted int
	failed    int
	fails     []string
	setups    []float64 // seconds per setup
	loop      time.Duration
	checkTime time.Duration // output checks run inside the loop

	cleanMu  sync.Mutex
	cleanups []func()
}

// fail records one failed op (or failed output check).
func (e *env) fail(format string, args ...any) {
	e.failed++
	if len(e.fails) < 10 {
		e.fails = append(e.fails, fmt.Sprintf(format, args...))
	}
}

// check runs one output check inside the measured loop; its time is
// left out of ops_per_s.
func (e *env) check(what string, f func() string) {
	start := time.Now()
	msg := f()
	e.checkTime += time.Since(start)
	if msg != "" {
		e.fail("%s: %s", what, msg)
	}
}

// onExit registers a cleanup that runs when the run ends, normally or on
// a signal. Cleanups run in reverse order.
func (e *env) onExit(f func()) {
	e.cleanMu.Lock()
	e.cleanups = append(e.cleanups, f)
	e.cleanMu.Unlock()
}

func (e *env) cleanup() {
	e.cleanMu.Lock()
	fs := e.cleanups
	e.cleanups = nil
	e.cleanMu.Unlock()
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i]()
	}
}

// deadline reports whether the measured window is over.
func (e *env) deadline(start time.Time) bool {
	return time.Since(start).Seconds() >= e.seconds
}

// setupRuns is how many times each workload sets up; setup_s is their
// median and the last setup's state is the one measured.
const setupRuns = 3

// timeSetup runs one setup and records its duration.
func (e *env) timeSetup(f func() error) error {
	start := time.Now()
	if err := f(); err != nil {
		return err
	}
	e.setups = append(e.setups, time.Since(start).Seconds())
	return nil
}

var workloads = map[string]func(*env) error{
	"allpairs-cold": runAllPairs,
	"zoo-churn":     runZooChurn,
	"merlind-hub":   runHub,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: allpairs-cold, zoo-churn, merlind-hub")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measured window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		merlind  = flag.String("merlind", "", "merlind binary (merlind-hub)")
		state    = flag.String("state", ".bench_build/perfbench", "directory for data dirs, traces and the ledger")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
		summary  = flag.Bool("summarize", false, "validate and summarize the ledger instead of running")
	)
	flag.Parse()
	sp, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *summary {
		if err := summarize(sp, filepath.Join(*state, "ledger.jsonl"), os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("bad -seconds %v or -trace %d", *seconds, *trace))
	}
	e := &env{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		merlind: *merlind, state: *state,
		tr: newTracer(*trace == 1), out: newMetrics(), lat: latencies{},
	}
	if err := os.MkdirAll(e.state, 0o755); err != nil {
		fatal(err)
	}
	// A signal still stops every child process and removes data dirs.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		e.cleanup()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", sig)
		os.Exit(1)
	}()

	err = run(e)
	e.cleanup()
	signal.Stop(sigc)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", e.workload, err))
	}
	if e.attempted == 0 {
		fatal(errors.New("no op completed in the measured window"))
	}
	finish(e, sp)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// kinds lists the per-op-kind latency metrics each workload reports, in
// the names the ROADMAP uses: the op kind, and whether a tail percentile
// applies.
var kinds = map[string][]struct {
	kind string
	tail bool
}{
	"allpairs-cold": {{"compile", false}},
	"zoo-churn":     {{"update", true}, {"topo", true}},
	"merlind-hub":   {{"request", true}, {"tick", true}},
}

// finish derives the end-to-end metrics, prints the full table, appends
// the ledger record, and prints the JSON result line.
func finish(e *env, sp *spec) {
	prefix := ""
	if e.trace {
		prefix = "traced."
	}
	ops := e.lat["op"]
	e.out.set(prefix+"setup_s", median(e.setups), "s")
	e.out.set(prefix+"op_p50_ms", median(ops), "ms")
	e.out.set(prefix+"op_p90_ms", quantile(ops, 0.90), "ms")
	e.out.set(prefix+"ops_per_s", float64(len(ops))/(e.loop-e.checkTime).Seconds(), "1/s")
	for _, k := range kinds[e.workload] {
		xs := e.lat[k.kind]
		if !k.tail {
			e.out.set(prefix+k.kind+"_ms", median(xs), "ms")
			continue
		}
		e.out.set(prefix+k.kind+"_p50_ms", median(xs), "ms")
		e.out.set(prefix+k.kind+"_p99_ms", quantile(xs, 0.99), "ms")
	}
	failedFrac := float64(e.failed) / float64(e.attempted)
	correct := e.failed == 0

	fmt.Printf("workload %s seed %d seconds %g trace %v\n", e.workload, e.seed, e.seconds, e.trace)
	fmt.Printf("  %-34s %14d  count\n", "attempted", e.attempted)
	fmt.Printf("  %-34s %14.6f  ratio\n", "failed_frac", failedFrac)
	for _, k := range kinds[e.workload] {
		fmt.Printf("  %-34s %14d  count\n", "samples."+k.kind, len(e.lat[k.kind]))
	}
	for _, name := range e.out.names {
		m := e.out.vals[name]
		fmt.Printf("  %-34s %14.6f  %s\n", name, m.Value, m.Unit)
	}
	for _, f := range e.fails {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}

	// The JSON line carries exactly the metrics BENCHMARK.json declares
	// for this kind of run; the traced run's idle layers read 0.
	want := sp.EndToEnd
	if e.trace {
		want = sp.PerLayer
	}
	res := map[string]metric{}
	for _, m := range want {
		v, ok := e.out.vals[m.Name]
		if !ok {
			if !e.trace {
				fatal(fmt.Errorf("end-to-end metric %s was not measured", m.Name))
			}
			v = metric{Value: 0, Unit: m.Unit}
		}
		if v.Unit != m.Unit {
			fatal(fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, v.Unit, m.Unit))
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fatal(fmt.Errorf("metric %s is not finite", m.Name))
		}
		res[m.Name] = v
	}
	rec := record{
		Workload: e.workload, Seed: e.seed, Seconds: e.seconds, Trace: e.trace,
		Time: time.Now().UTC().Format(time.RFC3339), Correct: correct,
		Attempted: e.attempted, Failed: e.failed, Metrics: e.out.vals,
	}
	if err := appendLedger(filepath.Join(e.state, "ledger.jsonl"), rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: ledger: %v\n", err)
	}
	if e.trace {
		name := fmt.Sprintf("%s-seed%d-%d.json", e.workload, e.seed, os.Getpid())
		if err := e.tr.write(filepath.Join(e.state, "traces"), name); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace: %v\n", err)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, e.attempted, e.failed, res})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
