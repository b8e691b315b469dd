package corpus

import (
	"fmt"
	"math/rand"
	"sort"

	"merlin/internal/topo"

	merlin "merlin"
)

// genSchedule attaches a balanced failure/recovery timeline to the
// scenario: a sequence of non-overlapping episodes — link flaps, capacity
// wobbles, and switch storms — each fully restored before the next
// begins, so a full replay returns the topology to its pristine state and
// an incremental compiler's output to its pre-schedule bytes. Every
// outage is feasibility-checked first: the surviving graph must keep all
// hosts and middleboxes connected and every region-confined guarantee
// routable inside its region, so the policy stays compilable at every
// step of the replay.
func genSchedule(sc *Scenario, rng *rand.Rand) error {
	t := sc.Topology
	type cable struct {
		id   topo.LinkID
		a, b string
	}
	// Candidate cables: switch-to-switch, in deterministic name order.
	var cables []cable
	seen := map[topo.LinkID]bool{}
	for _, l := range t.Links() {
		c := t.Cable(l.ID)
		if seen[c] {
			continue
		}
		seen[c] = true
		cl := t.Link(c)
		sn, dn := t.Node(cl.Src), t.Node(cl.Dst)
		if sn.Kind != topo.Switch || dn.Kind != topo.Switch {
			continue
		}
		a, b := sn.Name, dn.Name
		if a > b {
			a, b = b, a
		}
		cables = append(cables, cable{id: c, a: a, b: b})
	}
	sort.Slice(cables, func(i, j int) bool {
		if cables[i].a != cables[j].a {
			return cables[i].a < cables[j].a
		}
		return cables[i].b < cables[j].b
	})
	check := newOutageCheck(sc)
	var flaps []cable
	for _, c := range cables {
		if check.safe(map[topo.LinkID]bool{c.id: true}, -1) {
			flaps = append(flaps, c)
		}
	}
	// Storm candidates: switches with no attached hosts whose loss —
	// all incident cables at once — is survivable.
	var storms []topo.NodeID
	for _, s := range t.Switches() {
		hasHost := false
		skip := map[topo.LinkID]bool{}
		for _, l := range t.Out(s) {
			skip[t.Cable(l)] = true
			if t.Node(t.Link(l).Dst).Kind == topo.Host {
				hasHost = true
			}
		}
		if hasHost {
			continue
		}
		if check.safe(skip, s) {
			storms = append(storms, s)
		}
	}

	step := 0
	emit := func(down, up merlin.TopoEvent) {
		sc.Schedule = append(sc.Schedule,
			ScheduledEvent{Step: step, Event: down},
			ScheduledEvent{Step: step + 1, Event: up})
		step += 2
	}
	episodes := sc.Spec.episodes()
	for i := 0; i < episodes; i++ {
		// Rotate episode kinds, degrading to a capacity wobble — always
		// safe, it never breaks connectivity — when the preferred kind has
		// no safe candidate left.
		kind := i % 3
		if kind == 0 && len(flaps) == 0 {
			kind = 2
		}
		if kind == 1 && len(storms) == 0 {
			kind = 2
		}
		if kind == 2 && len(cables) == 0 {
			if len(flaps) > 0 {
				kind = 0
			} else {
				break
			}
		}
		switch kind {
		case 0:
			j := rng.Intn(len(flaps))
			c := flaps[j]
			flaps = append(flaps[:j], flaps[j+1:]...)
			emit(merlin.LinkFailure(c.a, c.b), merlin.LinkRecovery(c.a, c.b))
		case 1:
			j := rng.Intn(len(storms))
			s := storms[j]
			storms = append(storms[:j], storms[j+1:]...)
			name := t.Node(s).Name
			emit(merlin.SwitchFailure(name), merlin.SwitchRecovery(name))
		case 2:
			j := rng.Intn(len(cables))
			c := cables[j]
			cables = append(cables[:j], cables[j+1:]...)
			orig := t.Link(c.id).Capacity
			emit(merlin.CapacityChange(c.a, c.b, orig/2), merlin.CapacityChange(c.a, c.b, orig))
		}
	}
	if len(sc.Schedule) == 0 {
		return fmt.Errorf("corpus: no feasible failure episode on %s", sc.Spec.Topo)
	}
	sc.Invariants.Balanced = true
	return nil
}

// outageCheck decides whether the policy survives an outage: with the
// given cables down (and optionally a switch), all hosts and middleboxes
// must stay mutually connected (best-effort and chain statements stay
// routable) and every region-confined guarantee must stay routable inside
// its region. What does not depend on the outage — the nodes that must
// stay connected, each guarantee's endpoints and region — is resolved
// once per scenario, not once per candidate.
type outageCheck struct {
	t       *topo.Topology
	root    topo.NodeID
	must    []topo.NodeID // every other host and middlebox must reach root
	regions []regionCheck
}

// regionCheck is one region-confined guarantee: src must reach dst
// through allowed nodes. ok is false when an endpoint does not resolve.
type regionCheck struct {
	src, dst topo.NodeID
	allowed  []bool
	ok       bool
}

func newOutageCheck(sc *Scenario) *outageCheck {
	t := sc.Topology
	hosts := t.Hosts()
	oc := &outageCheck{
		t:    t,
		root: hosts[0],
		must: append(append([]topo.NodeID(nil), hosts[1:]...), t.Middleboxes()...),
	}
	for _, g := range sc.Guarantee {
		if len(g.Region) == 0 {
			continue
		}
		src, okS := t.Lookup(g.Src)
		dst, okD := t.Lookup(g.Dst)
		oc.regions = append(oc.regions, regionCheck{
			src: src, dst: dst, allowed: nodeSet(t, g.Region), ok: okS && okD,
		})
	}
	return oc
}

// safe reports whether the policy survives the outage of the cables in
// skip and of node down (pass -1 for none).
func (oc *outageCheck) safe(skip map[topo.LinkID]bool, down topo.NodeID) bool {
	// One search from the root decides every host and middlebox; a
	// failed root reaches nothing.
	seen := make([]bool, oc.t.NumNodes())
	var queue []topo.NodeID
	if oc.root != down {
		seen[oc.root] = true
		queue = append(queue, oc.root)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, l := range oc.t.Out(n) {
			if !oc.t.LinkIsUp(l) || skip[oc.t.Cable(l)] {
				continue
			}
			if m := oc.t.Link(l).Dst; m != down && !seen[m] {
				seen[m] = true
				queue = append(queue, m)
			}
		}
	}
	for _, n := range oc.must {
		if !seen[n] {
			return false
		}
	}
	for _, r := range oc.regions {
		if !r.ok || !reachable(oc.t, r.src, r.dst, skip, down, r.allowed) {
			return false
		}
	}
	return true
}
