package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"merlin"
	"merlin/internal/corpus"
	"merlin/internal/journal"
	"merlin/internal/policy"
	"merlin/internal/topo"
)

// hubSpec pins the merlind-hub genesis policy: 3 tenants × 2 capped
// statements on fattree-k4 (the topology merlind boots with by default),
// with a balanced failure schedule feeding /v1/topo.
var hubSpec = corpus.Spec{Topo: "fattree-k4", Suite: "delegation", Seed: 1, Failures: true, Tenants: 3, Guarantees: 2}

// hubTopo is merlind's -topo flag for hubSpec.Topo.
const hubTopo = "fattree,k=4"

const (
	// hubTopoEvery is the round spacing of /v1/topo events.
	hubTopoEvery = 10
	// hubProposeOdds: one round in hubProposeOdds (seeded) carries a
	// tighter-cap proposal from one tenant.
	hubProposeOdds = 20
	// hubWarmRounds are the setup's warm-up rounds (no topology events).
	hubWarmRounds = 10
)

// daemon is one merlind child process and the keep-alive client that
// talks to it.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	exited  chan struct{}
	waitErr error
	log     string
}

// freeAddr reserves a loopback port for merlind's -addr.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon boots merlind on dataDir with its shipped flags and waits
// until /healthz answers. The child is stopped by the run's cleanup even
// if the caller never stops it.
func startDaemon(e *env, dataDir, policyFile string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logPath := dataDir + ".log"
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	d := &daemon{
		base: "http://" + addr,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		exited: make(chan struct{}),
		log:    logPath,
	}
	d.cmd = exec.Command(e.merlind, "-addr", addr, "-data", dataDir, "-topo", hubTopo, "-policy", policyFile)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start merlind: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	e.onExit(d.kill)
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("merlind exited during boot (%v): %s", d.waitErr, d.tail())
		default:
		}
		if status, _, err := d.do("GET", "/healthz", nil); err == nil && status == http.StatusOK {
			return d, time.Since(start), nil
		}
		if time.Since(start) > 60*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("merlind did not answer /healthz within 60s: %s", d.tail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tail returns the end of the daemon's log for error messages.
func (d *daemon) tail() string {
	b, _ := os.ReadFile(d.log)
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// stop sends SIGTERM and waits for a clean exit, killing after 20s.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		select {
		case <-d.exited:
			return fmt.Errorf("merlind already exited: %v", d.waitErr)
		default:
			return err
		}
	}
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("merlind ignored SIGTERM for 20s")
	}
	if d.waitErr != nil {
		return fmt.Errorf("merlind shutdown: %v: %s", d.waitErr, d.tail())
	}
	return nil
}

// kill stops the child unconditionally and reaps it.
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Kill() // the wait below reaps it either way
		<-d.exited
	}
	d.client.CloseIdleConnections()
}

// do sends one request and reads the whole response, so the keep-alive
// connection is reused.
func (d *daemon) do(method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// hubRequest mirrors merlind's hub request body.
type hubRequest struct {
	Tenant           string   `json:"tenant"`
	Shard            string   `json:"shard,omitempty"`
	ShardCapacityBps float64  `json:"shard_capacity_bps,omitempty"`
	Statements       []string `json:"statements,omitempty"`
	AllocBps         float64  `json:"alloc_bps,omitempty"`
	IncreaseBps      float64  `json:"increase_bps,omitempty"`
	Decrease         float64  `json:"decrease,omitempty"`
	DemandBps        float64  `json:"demand_bps,omitempty"`
	Policy           string   `json:"policy,omitempty"`
}

// statsBody is the part of /v1/stats the benchmark reads.
type statsBody struct {
	Boot     string               `json:"boot"`
	Compiler merlin.CompilerStats `json:"compiler"`
	Journal  struct {
		Appends uint64 `json:"appends"`
		Commits uint64 `json:"commits"`
	} `json:"journal"`
}

// hub is the merlind-hub workload state.
type hub struct {
	sc      *corpus.Scenario
	genesis *merlin.Policy
	data    string // merlind -data
	polFile string
	d       *daemon
	boot    time.Duration
	rng     *rand.Rand
	round   int
	ev      int
	capOf   map[string]float64
}

func newHub(e *env, root string, n int) (*hub, error) {
	sc, err := corpus.Generate(hubSpec)
	if err != nil {
		return nil, err
	}
	h := &hub{sc: sc, rng: rand.New(rand.NewSource(e.seed)), capOf: map[string]float64{}}
	if h.genesis, err = merlin.ParsePolicy(sc.PolicyText, sc.Topology); err != nil {
		return nil, err
	}
	for _, tn := range sc.Tenants {
		for _, id := range tn.StmtIDs {
			h.capOf[id] = tn.CapBps
		}
	}
	dir := filepath.Join(root, fmt.Sprintf("boot%d", n))
	h.data = filepath.Join(dir, "data")
	h.polFile = filepath.Join(dir, "genesis.pol")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(h.polFile, []byte(sc.PolicyText), 0o644); err != nil {
		return nil, err
	}
	if h.d, h.boot, err = startDaemon(e, h.data, h.polFile); err != nil {
		return nil, err
	}
	for i, tn := range sc.Tenants {
		req := hubRequest{
			Tenant: tn.Name, Shard: fmt.Sprintf("pool%d", i),
			ShardCapacityBps: float64(len(tn.StmtIDs)) * tn.CapBps / 2,
			Statements:       tn.StmtIDs,
			AllocBps:         topo.MBps, IncreaseBps: 5 * topo.MBps, Decrease: 0.5,
		}
		if status, body, err := h.d.do("POST", "/v1/hub/register", req); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("register %s: %d %s %v", tn.Name, status, body, err)
		}
	}
	return h, nil
}

// proposal renders a tenant's statements with every cap scaled by f.
func (h *hub) proposal(tn corpus.Tenant, f float64) string {
	p := &policy.Policy{}
	var terms []policy.Formula
	for _, id := range tn.StmtIDs {
		s, _ := h.genesis.Statement(id)
		p.Statements = append(p.Statements, s)
		terms = append(terms, policy.Max{Expr: policy.BandExpr{IDs: []string{id}}, Rate: tn.CapBps * f})
	}
	p.Formula = policy.ConjFormula(terms...)
	return p.String()
}

// hubOp is one timed request of the mix.
type hubOp struct {
	kind string // "demand", "tick", "topo", "propose"
	path string
	body any
}

// roundOps returns the requests of the next round: one demand per
// tenant, then the tick, then (every hubTopoEvery rounds when topo is
// set) the next schedule event, and now and then a proposal.
func (h *hub) roundOps(withTopo bool) []hubOp {
	h.round++
	var ops []hubOp
	for _, tn := range h.sc.Tenants {
		demand := tn.CapBps * (0.2 + 1.2*h.rng.Float64())
		ops = append(ops, hubOp{"demand", "/v1/hub/demand", hubRequest{Tenant: tn.Name, DemandBps: demand}})
	}
	ops = append(ops, hubOp{"tick", "/v1/hub/tick", nil})
	if withTopo && h.round%hubTopoEvery == 0 {
		ev := h.sc.Schedule[h.ev%len(h.sc.Schedule)].Event
		h.ev++
		ops = append(ops, hubOp{"topo", "/v1/topo", merlin.WireTopoEvents([]merlin.TopoEvent{ev})})
	}
	if h.rng.Intn(hubProposeOdds) == 0 {
		tn := h.sc.Tenants[h.rng.Intn(len(h.sc.Tenants))]
		f := 0.5 + 0.1*float64(h.rng.Intn(5))
		ops = append(ops, hubOp{"propose", "/v1/hub/propose", hubRequest{Tenant: tn.Name, Policy: h.proposal(tn, f)}})
	}
	return ops
}

// checkResponse validates one response body for its op kind.
func checkResponse(op hubOp, status int, body []byte) string {
	if status < 200 || status > 299 {
		return fmt.Sprintf("%s: status %d: %s", op.kind, status, bytes.TrimSpace(body))
	}
	switch op.kind {
	case "tick":
		var r struct {
			Committed *bool `json:"committed"`
		}
		if err := json.Unmarshal(body, &r); err != nil || r.Committed == nil {
			return fmt.Sprintf("tick: bad body %s", body)
		}
	case "topo":
		var r struct {
			Applied int      `json:"applied"`
			Errors  []string `json:"errors"`
		}
		if err := json.Unmarshal(body, &r); err != nil || r.Applied < 1 || len(r.Errors) > 0 {
			return fmt.Sprintf("topo: not applied: %s", body)
		}
	}
	return ""
}

// checkCaps verifies every statement is still present and no negotiated
// cap exceeds its tenant's delegated cap.
func (h *hub) checkCaps(text string) string {
	pol, err := merlin.ParsePolicy(text, h.sc.Topology)
	if err != nil {
		return fmt.Sprintf("policy does not parse: %v", err)
	}
	if len(pol.Statements) != len(h.capOf) {
		return fmt.Sprintf("policy holds %d statements, want %d", len(pol.Statements), len(h.capOf))
	}
	maxes, _, err := policy.Terms(pol.Formula)
	if err != nil {
		return err.Error()
	}
	for _, m := range maxes {
		for _, id := range m.Expr.IDs {
			if cap, ok := h.capOf[id]; !ok || m.Rate > cap+1e-6 {
				return fmt.Sprintf("statement %s capped at %.0f, delegated %.0f", id, m.Rate, cap)
			}
		}
	}
	return ""
}

func (h *hub) get(path string) ([]byte, error) {
	status, body, err := h.d.do("GET", path, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, status, body)
	}
	return body, nil
}

func (h *hub) stats() (statsBody, error) {
	var st statsBody
	b, err := h.get("/v1/stats")
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// runHub measures the hub traffic mix against merlind. The measured
// stream runs until the window closes and on to a whole number of
// schedule cycles, so every run ends on the pristine topology; the
// daemon is then restarted on its data dir and must boot warm with the
// same result and policy.
func runHub(e *env) error {
	if e.merlind == "" {
		return fmt.Errorf("no -merlind binary")
	}
	root := filepath.Join(e.state, fmt.Sprintf("hub-%d", os.Getpid()))
	if err := os.RemoveAll(root); err != nil {
		return err
	}
	e.onExit(func() { os.RemoveAll(root) })
	var h *hub
	var boots []float64
	for i := 0; i < setupRuns; i++ {
		if h != nil {
			if err := h.d.stop(); err != nil {
				return err
			}
		}
		err := e.timeSetup(func() (err error) {
			if h, err = newHub(e, root, i); err != nil {
				return err
			}
			for r := 0; r < hubWarmRounds; r++ {
				for _, op := range h.roundOps(false) {
					status, body, err := h.d.do("POST", op.path, op.body)
					if err != nil {
						return fmt.Errorf("warm-up %s: %w", op.kind, err)
					}
					if msg := checkResponse(op, status, body); msg != "" {
						return fmt.Errorf("warm-up %s", msg)
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		boots = append(boots, ms(h.boot))
	}
	h.round = 0
	cycle := hubTopoEvery * len(h.sc.Schedule)
	l := newLedger(cycle)
	first, err := h.stats()
	if err != nil {
		return err
	}
	ticks, commits := 0, 0
	mem := startMem()
	start := time.Now()
	opID := 0
	for h.round == 0 || !e.deadline(start) || h.round%cycle != 0 {
		inWindow := h.round < cycle
		for _, op := range h.roundOps(true) {
			e.tr.beginOp("op."+op.kind, opID)
			opID++
			var status int
			var body []byte
			var err error
			d := e.tr.call("merlind."+op.path, func() { status, body, err = h.d.do("POST", op.path, op.body) })
			e.attempted++
			e.tr.endOp()
			if err != nil {
				e.fail("round %d %s: %v", h.round, op.kind, err)
				continue
			}
			e.lat.add("request", d)
			if op.kind == "tick" {
				e.lat["tick"] = append(e.lat["tick"], ms(d))
				if inWindow {
					ticks++
					if bytes.Contains(body, []byte(`"committed":true`)) {
						commits++
					}
				}
			}
			if msg := checkResponse(op, status, body); msg != "" {
				e.fail("round %d %s", h.round, msg)
			}
		}
		if h.round%hubTopoEvery == 0 {
			e.tr.beginOp("op.checkpoint", opID)
			opID++
			var text []byte
			ok := false
			e.check(fmt.Sprintf("round %d", h.round), func() string {
				var err error
				if text, err = h.get("/v1/policy"); err != nil {
					return err.Error()
				}
				msg := h.checkCaps(string(text))
				ok = msg == ""
				return msg
			})
			if ok && e.trace {
				pol, _ := merlin.ParsePolicy(string(text), h.sc.Topology)
				if err := probePolicy(e, l, h.sc.Topology, string(text), pol, true); err != nil {
					e.fail("round %d: probe: %v", h.round, err)
				}
			}
			e.tr.endOp()
		}
		if e.trace {
			var status int
			l.time("merlind.http_rtt_ms", e.tr.call("merlind./healthz", func() { status, _, err = h.d.do("GET", "/healthz", nil) }))
			if err != nil || status != http.StatusOK {
				e.fail("round %d: /healthz: %d %v", h.round, status, err)
			}
		}
		if h.round == cycle && e.trace {
			st, err := h.stats()
			if err != nil {
				return err
			}
			l.stats(first.Compiler, st.Compiler)
			l.count("journal.appends", float64(st.Journal.Appends-first.Journal.Appends))
			l.count("journal.commits", float64(st.Journal.Commits-first.Journal.Commits))
			l.count("negotiate.ticks", float64(ticks))
			l.count("negotiate.commits", float64(commits))
		}
		l.endOp()
	}
	e.loop = time.Since(start)

	resBody, err := h.get("/v1/result")
	if err != nil {
		return err
	}
	polBody, err := h.get("/v1/policy")
	if err != nil {
		return err
	}
	if msg := h.checkCaps(string(polBody)); msg != "" {
		e.fail("final: %s", msg)
	}
	var res struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(resBody, &res); err != nil {
		return fmt.Errorf("/v1/result: %w", err)
	}
	e.out.set("emitted_entries", float64(res.Total), "count")
	rss, err := peakRSSMB(h.d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	e.out.set("peak_rss_mb", rss, "MB")
	if err := h.d.stop(); err != nil {
		return err
	}

	// Warm restart on the same data dir. A daemon that cannot boot from
	// what it acknowledged fails the run's output check.
	e.attempted++
	d2, restart, err := startDaemon(e, h.data, h.polFile)
	if err != nil {
		e.fail("restart: %v", err)
	} else {
		h.d = d2
		if st, err := h.stats(); err != nil || st.Boot != "warm" {
			e.fail("restart booted %q, want warm (%v)", st.Boot, err)
		} else if b, err := h.get("/v1/result"); err != nil || !bytes.Equal(b, resBody) {
			e.fail("restart: /v1/result differs (%v)", err)
		} else if b, err := h.get("/v1/policy"); err != nil || !bytes.Equal(b, polBody) {
			e.fail("restart: /v1/policy differs (%v)", err)
		}
		if err := d2.stop(); err != nil {
			return err
		}
	}

	if e.trace {
		e.out.set("merlind.boot_ms", median(boots), "ms")
		e.out.set("merlind.restart_ms", ms(restart), "ms")
		l.report(e.out)
		appendMs, snapMs, err := probeJournal(filepath.Join(root, "scratch-journal"), polBody, h.data)
		if err != nil {
			return err
		}
		e.out.set("journal.append_ms", appendMs, "ms")
		e.out.set("journal.snapshot_ms", snapMs, "ms")
		c := l.counts
		if c["journal.commits"] > 0 {
			e.out.set("journal.records_per_commit", c["journal.appends"]/c["journal.commits"], "ratio")
		}
		if c["negotiate.ticks"] > 0 {
			e.out.set("negotiate.commit_ratio", c["negotiate.commits"]/c["negotiate.ticks"], "ratio")
		}
		mem.report(e.out, len(e.lat["op"]))
	}
	return nil
}

// probeJournal times journal.Store.Append and Snapshot on a scratch store
// on the same disk as merlind's data dir, with the workload's record
// sizes: a committed tick journals the full policy text, and a snapshot
// is as large as the newest snapshot merlind wrote. It returns the mean
// append and snapshot times in milliseconds.
func probeJournal(dir string, record []byte, dataDir string) (appendMs, snapMs float64, err error) {
	snapSize := 0
	snaps, _ := filepath.Glob(filepath.Join(dataDir, "snap-*"))
	for _, s := range snaps {
		if fi, err := os.Stat(s); err == nil && int(fi.Size()) > snapSize {
			snapSize = int(fi.Size())
		}
	}
	if snapSize == 0 {
		return 0, 0, fmt.Errorf("merlind wrote no snapshot in %s", dataDir)
	}
	store, _, err := journal.Open(dir, journal.Params{})
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	const appends, every = 64, 8
	payload := bytes.Repeat([]byte{'s'}, snapSize)
	var appendT, snapT time.Duration
	for i := 0; i < appends; i++ {
		start := time.Now()
		seq, err := store.Append(merlin.RecPolicy, record)
		if err != nil {
			return 0, 0, err
		}
		appendT += time.Since(start)
		if i%every == every-1 {
			start = time.Now()
			if err := store.Snapshot(seq, payload); err != nil {
				return 0, 0, err
			}
			snapT += time.Since(start)
		}
	}
	return ms(appendT) / appends, ms(snapT) / (appends / every), store.Close()
}
