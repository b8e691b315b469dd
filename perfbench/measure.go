package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the 0.5 nearest-rank quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencies collects per-op latencies in milliseconds, by op kind and
// under "op" for the whole mix.
type latencies map[string][]float64

func (l latencies) add(kind string, d time.Duration) {
	l[kind] = append(l[kind], ms(d))
	l["op"] = append(l["op"], ms(d))
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a run's ordered metric table.
type metrics struct {
	names []string
	vals  map[string]metric
}

func newMetrics() *metrics { return &metrics{vals: map[string]metric{}} }

func (m *metrics) set(name string, v float64, unit string) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// rssPeaks takes one peak-RSS reading per op: VmHWM is reset to the
// current resident size before the op and read after it. Their median is
// steadier than the run's single high-water mark, which one transient
// spike sets.
type rssPeaks struct {
	mb  []float64
	err error
}

func (r *rssPeaks) before() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil && r.err == nil {
		r.err = fmt.Errorf("reset VmHWM: %w", err)
	}
}

func (r *rssPeaks) after() {
	v, err := peakRSSMB(0)
	if err != nil {
		if r.err == nil {
			r.err = err
		}
		return
	}
	r.mb = append(r.mb, v)
}

// report sets peak_rss_mb to the median per-op peak.
func (r *rssPeaks) report(out *metrics) error {
	if r.err != nil {
		return r.err
	}
	out.set("peak_rss_mb", median(r.mb), "MB")
	return nil
}

// memDelta samples the benchmark process's allocator between two points.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// report sets the runtime.* per-layer metrics for ops operations.
func (m *memDelta) report(out *metrics, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(ops)
	if n < 1 {
		n = 1
	}
	out.set("runtime.allocs_per_op", float64(after.Mallocs-m.before.Mallocs)/n, "count")
	out.set("runtime.alloc_mb_per_op", float64(after.TotalAlloc-m.before.TotalAlloc)/n/(1<<20), "MB")
	out.set("runtime.gc_cycles", float64(after.NumGC-m.before.NumGC), "count")
}

// span is one traced interval: an op (Parent 0) or a call into a layer
// made by the benchmark on that op's behalf.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them once, when the run ends.
// Disabled tracers record nothing and cost one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	op    int // current op id
	cur   int // current op span id
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// beginOp opens the span of op number op.
func (tr *tracer) beginOp(name string, op int) {
	if !tr.on {
		return
	}
	tr.op = op
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Op: op, Name: name, Start: int64(time.Since(tr.t0))})
	tr.cur = len(tr.spans)
}

// endOp closes the current op span.
func (tr *tracer) endOp() {
	if !tr.on || tr.cur == 0 {
		return
	}
	tr.spans[tr.cur-1].End = int64(time.Since(tr.t0))
	tr.cur = 0
}

// call runs f inside a child span of the current op and returns how long
// f took.
func (tr *tracer) call(name string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	if tr.on {
		s := int64(start.Sub(tr.t0))
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: tr.cur, Op: tr.op, Name: name, Start: s, End: s + int64(d)})
	}
	return d
}

// write dumps the spans as JSON into dir.
func (tr *tracer) write(dir, file string) error {
	if !tr.on {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), b, 0o644)
}
