package codegen

import (
	"fmt"
	"sort"
	"strings"

	"merlin/internal/logical"
	"merlin/internal/pred"
	"merlin/internal/sinktree"
	"merlin/internal/topo"
)

// This file defines the target-neutral intermediate representation the
// compiler lowers plans into, and the lowering pass itself. The IR is the
// seam between policy compilation and dataplane emission: everything a
// concrete device config needs — classifier rules with tags and
// priorities, queue reservations, rate caps, middlebox function
// instances, host-side filters and functions — is decided here, once,
// deterministically. Backends (package-level Register) are pure renderers
// from the IR into their native form, so every backend of the same
// Program describes the same forwarding behavior.

// Match sentinels for Program rules.
const (
	// AnyPort wildcards the ingress-port match.
	AnyPort = topo.LinkID(-2)
	// TagAny wildcards the tag match.
	TagAny = -2
	// TagNone matches only untagged traffic.
	TagNone = -1
)

// Match selects packets for one IR rule. Zero-valued string fields and
// the Any sentinels are wildcards.
type Match struct {
	InPort topo.LinkID // arrival link; AnyPort for any
	Tag    int         // path tag; TagAny for any, TagNone for untagged
	SrcMAC string
	DstMAC string
	// Pred, when non-nil, must also hold — the classifier abstraction a
	// backend expands into its native match form (TCAM entries, P4 table
	// keys, Click classifier expressions).
	Pred pred.Pred
}

// OpKind enumerates IR rule operations.
type OpKind int

// IR rule operations.
const (
	// OpForward sends the packet out Port.
	OpForward OpKind = iota
	// OpForwardQueue sends the packet out Port through QoS queue Queue.
	OpForwardQueue
	// OpSetTag writes the path tag.
	OpSetTag
	// OpClearTag removes the path tag.
	OpClearTag
	// OpDrop discards the packet.
	OpDrop
)

// Op is one operation of an IR rule's action sequence.
type Op struct {
	Kind  OpKind
	Port  topo.LinkID // OpForward, OpForwardQueue
	Queue int         // OpForwardQueue
	Tag   int         // OpSetTag
}

// Rule is one device-level classifier/forwarding entry in the IR:
// first-match by descending priority, with an ordered operation list.
type Rule struct {
	Device   topo.NodeID
	Priority int
	Match    Match
	Ops      []Op
	// Stmt is the policy statement the rule was lowered from.
	Stmt string
}

// CapSpec is a host-side bandwidth cap (lowered to a tc command, an
// end-host program clause, or a hardware meter, depending on backend).
type CapSpec struct {
	Host   topo.NodeID
	Stmt   string
	MaxBps float64
}

// FilterSpec is a host-side edge filter: traffic of the statement must be
// dropped before it enters the network.
type FilterSpec struct {
	Host topo.NodeID
	Stmt string
	Pred pred.Pred
}

// FnSpec is one packet-processing function instance placed on a
// middlebox (or a host running the middlebox substrate).
type FnSpec struct {
	Node topo.NodeID
	Fn   string
	Stmt string
}

// HostFnSpec is an end-host dataplane function: a rate limiter (or
// filter) the host's local enforcement substrate must run against the
// statement's traffic.
type HostFnSpec struct {
	Host    topo.NodeID
	Stmt    string
	Pred    pred.Pred
	RateBps float64
}

// Program is the lowered, target-neutral form of a compiled policy: the
// complete dataplane behavior, independent of any concrete device
// family. Section order is deterministic (plans are visited in stable
// priority order), so two lowerings of the same plan list are identical
// and backends inherit that determinism for free.
type Program struct {
	Rules   []Rule
	Queues  []QueueConfig
	Caps    []CapSpec
	Filters []FilterSpec
	Fns     []FnSpec
	HostFns []HostFnSpec
	// Tags maps statement IDs to the path tags allocated for them.
	Tags map[string][]int
}

// lowerer carries lowering state (the pre-redesign generator, emitting IR
// instead of OpenFlow rules).
type lowerer struct {
	t    *topo.Topology
	ids  *topo.IdentityTable
	prog *Program
	// bound dedups forwarding rules: (device, tag, inPort) → rule index.
	bound map[ruleKey]int
	// classBound dedups classification rules.
	classBound map[classKey]bool
	// queueBound dedups queue configs and allocates queue ids per port.
	queueBound map[queueKey]bool
	queueNext  map[topo.LinkID]int
	nextTag    int
	// scratch buffers reused across plans
	locBuf  []topo.NodeID
	stepBuf []logical.Step
}

// byPriority sorts plans by descending priority, stably.
type byPriority []Plan

func (p byPriority) Len() int           { return len(p) }
func (p byPriority) Less(i, j int) bool { return p[i].Priority > p[j].Priority }
func (p byPriority) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }

type ruleKey struct {
	sw   topo.NodeID
	vlan int
	in   topo.LinkID
}

// classKey identifies a classification rule: what selects the traffic
// (destination MAC or rendered cube predicate) at a (device, tag).
type classKey struct {
	sw   topo.NodeID
	vlan int
	sel  string
}

type queueKey struct {
	sw     topo.NodeID
	port   topo.LinkID
	minBps float64
}

// Lower turns plans into the target-neutral Program: path tags are
// allocated, classification and forwarding rules laid out with conflict
// retagging, queues reserved, caps, filters, and function instances
// recorded. The output is deterministic in the plan list. A plan list
// needing more path tags than the tag space holds fails with a wrapped
// *TagSpaceError.
func Lower(t *topo.Topology, plans []Plan) (*Program, error) {
	g := &lowerer{
		t:          t,
		ids:        t.Identities(),
		prog:       &Program{Tags: map[string][]int{}, Rules: make([]Rule, 0, 2*len(plans))},
		bound:      map[ruleKey]int{},
		classBound: map[classKey]bool{},
		queueBound: map[queueKey]bool{},
		queueNext:  map[topo.LinkID]int{},
		nextTag:    firstTag,
	}
	// Stable order: guaranteed paths first (their classification has
	// higher effective priority anyway), then by ID.
	ordered := append([]Plan(nil), plans...)
	sort.Stable(byPriority(ordered))
	// Tree tag sharing: plans pointing at the same sink tree share tags.
	treeTags := map[*sinktree.Tree]int{}
	for _, p := range ordered {
		switch {
		case p.Drop:
			g.lowerDrop(p)
		case p.Path != nil:
			tag, err := g.allocTag(p.ID)
			if err == nil {
				err = g.lowerPath(p, p.Path, tag, true)
			}
			if err != nil {
				return nil, fmt.Errorf("codegen: statement %s: %w", p.ID, err)
			}
		case p.Tree != nil:
			tag, ok := treeTags[p.Tree]
			if !ok {
				var err error
				if tag, err = g.allocTag(p.ID); err != nil {
					return nil, fmt.Errorf("codegen: statement %s: %w", p.ID, err)
				}
				treeTags[p.Tree] = tag
			} else {
				g.prog.Tags[p.ID] = append(g.prog.Tags[p.ID], tag)
			}
			steps := p.Tree.PathFromBuf(g.stepBuf, p.SrcHost)
			if steps == nil {
				return nil, fmt.Errorf("codegen: statement %s: %s cannot reach %s under the path constraint",
					p.ID, t.Node(p.SrcHost).Name, t.Node(p.DstHost).Name)
			}
			if err := g.lowerPath(p, steps, tag, false); err != nil {
				return nil, fmt.Errorf("codegen: statement %s: %w", p.ID, err)
			}
			if cap(steps) > cap(g.stepBuf) {
				g.stepBuf = steps[:0]
			}
		default:
			return nil, fmt.Errorf("codegen: statement %s has neither path nor tree", p.ID)
		}
		g.lowerHostConfig(p)
	}
	return g.prog, nil
}

// Path tags are allocated from [firstTag, lastTag]: tags 0/1 are reserved
// on real switches (VLAN semantics), and the 12-bit VLAN field tops out
// below 4095.
const (
	firstTag = 2
	lastTag  = 4093
)

// TagSpaceError is the typed error Lower returns when the plans need more
// path tags than the tag space holds.
type TagSpaceError struct {
	// Allocated is the number of tags handed out before the failure.
	Allocated int
}

// Error implements error.
func (e *TagSpaceError) Error() string {
	return fmt.Sprintf("tag space exhausted (%d path tags allocated)", e.Allocated)
}

func (g *lowerer) allocTag(id string) (int, error) {
	if g.nextTag > lastTag {
		return 0, &TagSpaceError{Allocated: g.nextTag - firstTag}
	}
	tag := g.nextTag
	g.nextTag++
	g.prog.Tags[id] = append(g.prog.Tags[id], tag)
	return tag, nil
}

// lowerDrop installs an edge filter at the source host's ingress device
// plus a host-side filter.
func (g *lowerer) lowerDrop(p Plan) {
	att, ok := g.t.Attachment(p.SrcHost)
	if !ok {
		return
	}
	cubes, err := pred.PositiveCubes(p.Predicate)
	if err != nil || len(cubes) == 0 {
		cubes = [][]pred.Test{nil}
	}
	for range cubes {
		g.prog.Rules = append(g.prog.Rules, Rule{
			Device:   att,
			Priority: 1000 + p.Priority,
			Match:    Match{InPort: AnyPort, Tag: TagNone, Pred: p.Predicate},
			Ops:      []Op{{Kind: OpDrop}},
			Stmt:     p.ID,
		})
	}
	g.prog.Filters = append(g.prog.Filters, FilterSpec{
		Host: p.SrcHost,
		Stmt: p.ID,
		Pred: p.Predicate,
	})
}

// lowerPath walks a physical path and lays out tag-switched forwarding
// rules, classification at the ingress device, queue reservations for
// guarantees, and function instances for middlebox placements.
func (g *lowerer) lowerPath(p Plan, steps []logical.Step, tag int, guaranteed bool) error {
	locs := logical.AppendLocations(g.locBuf, steps)
	g.locBuf = locs
	if len(locs) < 2 {
		return fmt.Errorf("degenerate path")
	}
	if g.t.Node(locs[0]).Kind != topo.Host || g.t.Node(locs[len(locs)-1]).Kind != topo.Host {
		return fmt.Errorf("path endpoints must be hosts")
	}
	// Function instances for middlebox placements; host placements run on
	// the end-host substrate too.
	for _, pl := range logical.PlacementsOf(steps) {
		g.prog.Fns = append(g.prog.Fns, FnSpec{Node: pl.Loc, Fn: pl.Fn, Stmt: p.ID})
	}
	curTag := tag
	classified := false
	for i := 1; i < len(locs)-1; i++ {
		node := locs[i]
		if g.t.Node(node).Kind != topo.Switch {
			continue // middlebox hops bounce; host interiors impossible
		}
		inLink, ok := g.t.FindLink(locs[i-1], node)
		if !ok {
			return fmt.Errorf("no link %s-%s", g.t.Node(locs[i-1]).Name, g.t.Node(node).Name)
		}
		outLink, ok := g.t.FindLink(node, locs[i+1])
		if !ok {
			return fmt.Errorf("no link %s-%s", g.t.Node(node).Name, g.t.Node(locs[i+1]).Name)
		}
		last := i == len(locs)-2
		fwd := Op{Kind: OpForward, Port: outLink.ID}
		if guaranteed {
			q := g.queueFor(node, outLink.ID, p.Alloc.Min)
			fwd = Op{Kind: OpForwardQueue, Port: outLink.ID, Queue: q}
		}
		if !classified {
			// Ingress classification: untagged packets matching the
			// statement's predicate get the path tag.
			g.lowerClassification(p, node, inLink.ID, curTag, fwd, last)
			classified = true
			continue
		}
		key := ruleKey{sw: node, vlan: curTag, in: inLink.ID}
		ops := []Op{fwd}
		if last {
			ops = []Op{{Kind: OpClearTag}, fwd}
		}
		if idx, exists := g.bound[key]; exists {
			if !sameOps(g.prog.Rules[idx].Ops, ops) {
				// Conflict: this (device, tag, port) already forwards
				// elsewhere. Retag the previous hop onto a fresh tag.
				fresh, err := g.allocTag(p.ID)
				if err != nil {
					return err
				}
				if err := g.retagPrevious(p, locs, i, curTag, fresh); err != nil {
					return err
				}
				curTag = fresh
				key.vlan = curTag
				g.prog.Rules = append(g.prog.Rules, Rule{
					Device:   node,
					Priority: 500,
					Match:    Match{InPort: inLink.ID, Tag: curTag},
					Ops:      ops,
					Stmt:     p.ID,
				})
				g.bound[key] = len(g.prog.Rules) - 1
			}
			continue
		}
		g.prog.Rules = append(g.prog.Rules, Rule{
			Device:   node,
			Priority: 500,
			Match:    Match{InPort: inLink.ID, Tag: curTag},
			Ops:      ops,
			Stmt:     p.ID,
		})
		g.bound[key] = len(g.prog.Rules) - 1
	}
	if !classified {
		return fmt.Errorf("path contains no switch")
	}
	return nil
}

// retagPrevious rewrites the rule lowered for the hop before position i so
// the packet arrives with the fresh tag.
func (g *lowerer) retagPrevious(p Plan, locs []topo.NodeID, i, oldTag, fresh int) error {
	// Find the previous switch hop.
	for j := i - 1; j >= 1; j-- {
		if g.t.Node(locs[j]).Kind != topo.Switch {
			continue
		}
		inLink, _ := g.t.FindLink(locs[j-1], locs[j])
		key := ruleKey{sw: locs[j], vlan: oldTag, in: inLink.ID}
		idx, ok := g.bound[key]
		if !ok {
			return fmt.Errorf("retag: no prior rule at %s", g.t.Node(locs[j]).Name)
		}
		rule := &g.prog.Rules[idx]
		rule.Ops = append([]Op{{Kind: OpSetTag, Tag: fresh}}, rule.Ops...)
		return nil
	}
	return fmt.Errorf("retag: no prior switch hop")
}

// lowerClassification installs the ingress rules mapping untagged packets
// of the statement onto the path tag.
func (g *lowerer) lowerClassification(p Plan, sw topo.NodeID, in topo.LinkID, tag int, fwd Op, last bool) {
	ops := []Op{{Kind: OpSetTag, Tag: tag}, fwd}
	if last {
		// Single-switch path: tag would be stripped immediately; skip
		// tagging altogether.
		ops = []Op{fwd}
	}
	switch p.Classify {
	case ByDestination:
		ident, _ := g.ids.Of(p.DstHost)
		key := classKey{sw: sw, vlan: tag, sel: ident.MAC}
		if g.classBound[key] {
			return
		}
		g.classBound[key] = true
		g.prog.Rules = append(g.prog.Rules, Rule{
			Device:   sw,
			Priority: 100 + p.Priority,
			Match:    Match{InPort: AnyPort, Tag: TagNone, DstMAC: ident.MAC},
			Ops:      ops,
			Stmt:     p.ID,
		})
	default:
		cubes, err := pred.PositiveCubes(p.Predicate)
		exact := err != nil // expansion too large: match the full predicate in one rule
		if len(cubes) == 0 {
			cubes = [][]pred.Test{nil}
		}
		for _, cube := range cubes {
			cubePred := cubeToPred(cube)
			if exact {
				cubePred = p.Predicate
			}
			key := classKey{sw: sw, vlan: tag, sel: "p/" + pred.Format(cubePred)}
			if g.classBound[key] {
				continue
			}
			g.classBound[key] = true
			g.prog.Rules = append(g.prog.Rules, Rule{
				Device:   sw,
				Priority: 100 + p.Priority,
				Match:    Match{InPort: in, Tag: TagNone, Pred: cubePred},
				Ops:      ops,
				Stmt:     p.ID,
			})
		}
	}
}

func cubeToPred(cube []pred.Test) pred.Pred {
	ps := make([]pred.Pred, len(cube))
	for i, t := range cube {
		ps[i] = t
	}
	return pred.Conj(ps...)
}

// queueFor allocates (or reuses) a QoS queue on the given port with the
// statement's guaranteed rate.
func (g *lowerer) queueFor(sw topo.NodeID, port topo.LinkID, minBps float64) int {
	key := queueKey{sw: sw, port: port, minBps: minBps}
	if g.queueBound[key] {
		// Reuse: find the existing config.
		for _, q := range g.prog.Queues {
			if q.Switch == sw && q.Port == port && q.MinBps == minBps {
				return q.Queue
			}
		}
	}
	g.queueBound[key] = true
	q := g.queueNext[port] + 1
	g.queueNext[port] = q
	g.prog.Queues = append(g.prog.Queues, QueueConfig{Switch: sw, Port: port, Queue: q, MinBps: minBps})
	return q
}

// lowerHostConfig records the statement's host-side rate cap.
func (g *lowerer) lowerHostConfig(p Plan) {
	if CapApplies(p.Alloc.Max) {
		g.prog.Caps = append(g.prog.Caps, CapSpec{Host: p.SrcHost, Stmt: p.ID, MaxBps: p.Alloc.Max})
	}
}

func sameOps(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FormatOps renders an op sequence compactly ("set_tag:2,forward:5") —
// shared by diagnostics and backends that want a canonical action name.
func FormatOps(ops []Op) string {
	parts := make([]string, 0, len(ops))
	for _, op := range ops {
		switch op.Kind {
		case OpForward:
			parts = append(parts, fmt.Sprintf("forward:%d", op.Port))
		case OpForwardQueue:
			parts = append(parts, fmt.Sprintf("forward_queue:%d:%d", op.Port, op.Queue))
		case OpSetTag:
			parts = append(parts, fmt.Sprintf("set_tag:%d", op.Tag))
		case OpClearTag:
			parts = append(parts, "clear_tag")
		case OpDrop:
			parts = append(parts, "drop")
		}
	}
	return strings.Join(parts, ",")
}
