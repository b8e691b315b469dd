package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// record is one run in the ledger: the run's identity, its outcome, and
// every metric it measured (not only the ones its JSON line carries).
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Time      string            `json:"time"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func appendLedger(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validate checks one record against the benchmark definition before it
// may enter a summary.
func validate(sp *spec, r record) error {
	if workloads[r.Workload] == nil {
		return fmt.Errorf("unknown workload %q", r.Workload)
	}
	if r.Attempted < 1 || r.Failed < 0 || r.Failed > r.Attempted {
		return fmt.Errorf("attempted %d, failed %d", r.Attempted, r.Failed)
	}
	if r.Correct != (r.Failed == 0) {
		return fmt.Errorf("correct=%v with %d failed", r.Correct, r.Failed)
	}
	want := sp.EndToEnd
	if r.Trace {
		want = sp.PerLayer
	}
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok && !r.Trace {
			return fmt.Errorf("missing metric %s", m.Name)
		}
		if ok && v.Unit != m.Unit {
			return fmt.Errorf("metric %s in %s, declared %s", m.Name, v.Unit, m.Unit)
		}
	}
	for name, v := range r.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// exact reports whether a metric is a deterministic counter that must
// repeat exactly across runs at one seed.
func exact(name, unit string) bool {
	return unit == "count" && !strings.HasPrefix(name, "runtime.")
}

// summarize validates every ledger record, prints a median/quartile table
// grouped by (workload, metric), the tracing overhead of each end-to-end
// metric, and fails if a deterministic counter did not repeat exactly.
func summarize(sp *spec, path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var recs []record
	invalid := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var r record
		err := json.Unmarshal(sc.Bytes(), &r)
		if err == nil {
			err = validate(sp, r)
		}
		if err != nil {
			fmt.Fprintf(w, "invalid record at line %d: %v\n", line, err)
			invalid++
			continue
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return err
	}

	type key struct {
		workload string
		trace    bool
		metric   string
	}
	vals := map[key][]float64{}
	units := map[key]string{}
	runs := map[string]int{}
	failed := 0
	for _, r := range recs {
		runs[fmt.Sprintf("%s trace=%v", r.Workload, r.Trace)]++
		failed += r.Failed
		for name, m := range r.Metrics {
			k := key{r.Workload, r.Trace, name}
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	keys := make([]key, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return !a.trace
		}
		return a.metric < b.metric
	})
	fmt.Fprintf(w, "%d valid records, %d invalid, %d failed ops\n", len(recs), invalid, failed)
	for _, name := range sortedKeys(runs) {
		fmt.Fprintf(w, "  %-40s %d runs\n", name, runs[name])
	}
	fmt.Fprintf(w, "%-14s %-6s %-36s %4s %14s %14s %14s %8s  %s\n",
		"workload", "trace", "metric", "n", "q1", "median", "q3", "iqr/med", "unit")
	for _, k := range keys {
		q1, q2, q3 := quartiles(vals[k])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		fmt.Fprintf(w, "%-14s %-6v %-36s %4d %14.6g %14.6g %14.6g %8.4f  %s\n",
			k.workload, k.trace, k.metric, len(vals[k]), q1, q2, q3, spread, units[k])
	}

	fmt.Fprintln(w, "tracing overhead (traced median minus untraced median):")
	for _, wl := range sortedKeys(workloads) {
		for _, m := range sp.EndToEnd {
			plain, traced := vals[key{wl, false, m.Name}], vals[key{wl, true, "traced." + m.Name}]
			if len(plain) == 0 || len(traced) == 0 {
				continue
			}
			_, p, _ := quartiles(plain)
			_, t, _ := quartiles(traced)
			fmt.Fprintf(w, "  %-14s %-20s %+14.6g %s (%+.1f%%)\n", wl, m.Name, t-p, m.Unit, 100*(t-p)/p)
		}
	}

	// Deterministic counters must repeat exactly at one seed.
	type seedKey struct {
		workload string
		trace    bool
		seed     int64
		metric   string
	}
	seen := map[seedKey]float64{}
	var mismatches []string
	for _, r := range recs {
		for name, m := range r.Metrics {
			if !exact(name, m.Unit) {
				continue
			}
			k := seedKey{r.Workload, r.Trace, r.Seed, name}
			if v, ok := seen[k]; ok && v != m.Value {
				mismatches = append(mismatches, fmt.Sprintf("%s seed %d %s: %v then %v", r.Workload, r.Seed, name, v, m.Value))
			}
			seen[k] = m.Value
		}
	}
	sort.Strings(mismatches)
	for _, m := range mismatches {
		fmt.Fprintf(w, "count did not repeat: %s\n", m)
	}
	if len(mismatches) > 0 || invalid > 0 {
		return fmt.Errorf("%d counters did not repeat, %d invalid records", len(mismatches), invalid)
	}
	fmt.Fprintln(w, "every deterministic counter repeated exactly at each seed")
	return nil
}
