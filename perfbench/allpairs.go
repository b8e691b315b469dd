package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"merlin"
	"merlin/internal/corpus"
	"merlin/internal/openflow"
	"merlin/internal/packet"
)

// allPairsPolicy is the Fig. 8c policy: best-effort connectivity between
// every ordered host pair (2,862 statements on fattree-k6), compiled with
// the totality default statement merlinc adds.
const allPairsPolicy = "foreach (s,d) in cross(hosts,hosts): .*"

// allPairsTargets is every bundled backend.
var allPairsTargets = []string{"openflow", "tc", "click", "host", "p4", "tcam"}

// allPairsProbes is how many seeded host pairs each compile's OpenFlow
// output must deliver.
const allPairsProbes = 48

type allPairs struct {
	t      *merlin.Topology
	src    string
	pol    *merlin.Policy
	opts   merlin.Options
	pairs  [][2]merlin.NodeID
	digest string
}

// runAllPairs measures repeated cold compiles, each on a fresh Compiler.
// The first compile in a process runs about twice as slow as later ones,
// so every setup ends with a warm-up compile whose output is the
// reference the measured compiles must reproduce.
func runAllPairs(e *env) error {
	var w *allPairs
	for i := 0; i < setupRuns; i++ {
		if err := e.timeSetup(func() (err error) { w, err = newAllPairs(e.seed); return err }); err != nil {
			return err
		}
	}
	l := newLedger(1)
	var rss rssPeaks
	mem := startMem()
	start := time.Now()
	var prev map[string]merlin.Artifact
	var last *merlin.Result
	for op := 0; !e.deadline(start); op++ {
		e.tr.beginOp("op.compile", op)
		var res *merlin.Result
		var err error
		c := merlin.NewCompiler(w.t, nil, w.opts)
		rss.before()
		d := e.tr.call("merlin.Compiler.Compile", func() { res, err = c.Compile(w.pol) })
		rss.after()
		e.attempted++
		if err != nil {
			e.fail("compile %d: %v", op, err)
			e.tr.endOp()
			continue
		}
		e.lat.add("compile", d)
		e.check(fmt.Sprintf("compile %d", op), func() string { return w.check(res) })
		if e.trace {
			l.timing(res.Timing)
			l.stats(merlin.CompilerStats{}, c.Stats())
			if err := probePolicy(e, l, w.t, w.src, w.pol, true); err != nil {
				e.fail("compile %d: probe: %v", op, err)
			}
			if err := probeCodegen(e, l, w.t, res, prev); err != nil {
				e.fail("compile %d: probe: %v", op, err)
			}
			prev = res.Outputs
			l.endOp()
		}
		last = res
		e.tr.endOp()
	}
	e.loop = time.Since(start)
	if last == nil {
		return fmt.Errorf("no compile succeeded")
	}
	e.out.set("emitted_entries", float64(entries(last)), "count")
	if err := rss.report(e.out); err != nil {
		return err
	}
	if e.trace {
		l.report(e.out)
		mem.report(e.out, len(e.lat["op"]))
	}
	return nil
}

// newAllPairs builds the inputs for one seed and runs the warm-up compile.
func newAllPairs(seed int64) (*allPairs, error) {
	t, err := corpus.BuildTopo("fattree-k6")
	if err != nil {
		return nil, err
	}
	w := &allPairs{t: t, src: allPairsPolicy, opts: merlin.Options{Targets: allPairsTargets}}
	if w.pol, err = merlin.ParsePolicy(w.src, t); err != nil {
		return nil, err
	}
	hosts := t.Hosts()
	rng := rand.New(rand.NewSource(seed))
	for len(w.pairs) < allPairsProbes {
		a, b := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		if a != b {
			w.pairs = append(w.pairs, [2]merlin.NodeID{a, b})
		}
	}
	res, err := merlin.NewCompiler(t, nil, w.opts).Compile(w.pol)
	if err != nil {
		return nil, fmt.Errorf("warm-up compile: %w", err)
	}
	if msg := w.check(res); msg != "" {
		return nil, fmt.Errorf("warm-up compile: %s", msg)
	}
	return w, nil
}

// check verifies one compile: every backend emitted, the OpenFlow rules
// deliver each sampled host pair's packet to its destination, and the
// output digest equals the run's first compile.
func (w *allPairs) check(res *merlin.Result) string {
	if len(res.Outputs) != len(allPairsTargets) {
		return fmt.Sprintf("%d artifacts, want %d", len(res.Outputs), len(allPairsTargets))
	}
	net := openflow.NewNetwork(w.t)
	net.Install(res.Output.Rules)
	ids := w.t.Identities()
	for _, p := range w.pairs {
		si, _ := ids.Of(p[0])
		di, _ := ids.Of(p[1])
		tr := net.Inject(p[0], packet.TCPPacket(si.MAC, di.MAC, si.IP, di.IP, 1, 80, nil))
		if !tr.Delivered || tr.DeliveredTo != p[1] {
			return fmt.Sprintf("%s→%s not delivered: %s", si.Name, di.Name, tr.Dropped)
		}
	}
	sum := digest(res)
	if w.digest == "" {
		w.digest = sum
	} else if sum != w.digest {
		return "output digest differs from the first compile"
	}
	return ""
}

// digest hashes every backend's rendered entries in target order.
func digest(res *merlin.Result) string {
	h := sha256.New()
	for _, name := range sortedKeys(res.Outputs) {
		fmt.Fprintf(h, "%s\n", name)
		for _, en := range res.Outputs[name].Entries() {
			fmt.Fprintf(h, "%d %s\n", en.Device, en.Text)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
