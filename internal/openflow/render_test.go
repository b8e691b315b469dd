package openflow

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"merlin/internal/packet"
	"merlin/internal/pred"
	"merlin/internal/topo"
)

// sprintfString is the fmt.Sprintf / strings.Join renderer Rule.String
// replaced. It stays as the oracle Rule.String must match byte for byte:
// backends diff artifacts by these strings, so any drift would show up as
// spurious installs and removals.
func sprintfString(r Rule) string {
	var parts []string
	if r.Match.InPort != MatchAny {
		parts = append(parts, fmt.Sprintf("in=%d", r.Match.InPort))
	}
	if r.Match.VLAN != MatchAny {
		parts = append(parts, fmt.Sprintf("vlan=%d", r.Match.VLAN))
	}
	if r.Match.EthSrc != "" {
		parts = append(parts, "src="+r.Match.EthSrc)
	}
	if r.Match.EthDst != "" {
		parts = append(parts, "dst="+r.Match.EthDst)
	}
	if r.Match.Predicate != nil {
		parts = append(parts, pred.Format(r.Match.Predicate))
	}
	var acts []string
	for _, a := range r.Actions {
		switch act := a.(type) {
		case Output:
			acts = append(acts, fmt.Sprintf("output:%d", act.Port))
		case SetVLAN:
			acts = append(acts, fmt.Sprintf("set_vlan:%d", act.VLAN))
		case StripVLAN:
			acts = append(acts, "strip_vlan")
		case Enqueue:
			acts = append(acts, fmt.Sprintf("enqueue:%d:%d", act.Port, act.Queue))
		case Drop:
			acts = append(acts, "drop")
		}
	}
	return fmt.Sprintf("sw=%d prio=%d [%s] -> %s",
		r.Switch, r.Priority, strings.Join(parts, ","), strings.Join(acts, ","))
}

// unknownAction is an action type neither renderer knows; both skip it.
type unknownAction struct{}

func (unknownAction) isAction() {}

var renderFields = []pred.Field{"eth.src", "eth.dst", "ip.src", "tcp.dst", "vlan.id", "payload"}

func randomPred(rng *rand.Rand, depth int) pred.Pred {
	k := rng.Intn(6)
	if depth == 0 {
		k = rng.Intn(3)
	}
	switch k {
	case 0:
		return pred.TruePred{}
	case 1:
		return pred.FalsePred{}
	case 2:
		return pred.Test{Field: renderFields[rng.Intn(len(renderFields))], Value: fmt.Sprint(rng.Intn(100))}
	case 3:
		return pred.And{L: randomPred(rng, depth-1), R: randomPred(rng, depth-1)}
	case 4:
		return pred.Or{L: randomPred(rng, depth-1), R: randomPred(rng, depth-1)}
	default:
		return pred.Not{P: randomPred(rng, depth-1)}
	}
}

// randomInt draws the integers a rule field can hold: MatchAny, the
// untagged VLAN marker, other negatives, small values and large ones.
func randomInt(rng *rand.Rand) int {
	switch rng.Intn(6) {
	case 0:
		return MatchAny
	case 1:
		return packet.VLANNone
	case 2:
		return -rng.Intn(1 << 20)
	case 3:
		return rng.Int()
	default:
		return rng.Intn(64)
	}
}

func randomRule(rng *rand.Rand) Rule {
	r := Rule{
		Switch:   topo.NodeID(randomInt(rng)),
		Priority: randomInt(rng),
		Match: Match{
			InPort: topo.LinkID(randomInt(rng)),
			VLAN:   randomInt(rng),
		},
	}
	if rng.Intn(2) == 0 {
		r.Match.EthSrc = fmt.Sprintf("00:00:00:00:00:%02x", rng.Intn(256))
	}
	if rng.Intn(2) == 0 {
		r.Match.EthDst = fmt.Sprintf("h%d", rng.Intn(50))
	}
	if rng.Intn(2) == 0 {
		r.Match.Predicate = randomPred(rng, 3)
	}
	for n := rng.Intn(5); n > 0; n-- {
		var a Action
		switch rng.Intn(6) {
		case 0:
			a = Output{Port: topo.LinkID(randomInt(rng))}
		case 1:
			a = SetVLAN{VLAN: randomInt(rng)}
		case 2:
			a = StripVLAN{}
		case 3:
			a = Enqueue{Port: topo.LinkID(randomInt(rng)), Queue: randomInt(rng)}
		case 4:
			a = Drop{}
		default:
			a = unknownAction{}
		}
		r.Actions = append(r.Actions, a)
	}
	return r
}

// TestRuleStringMatchesSprintf holds Rule.String byte-identical to the
// Sprintf renderer on random rules covering every match field (wildcards
// and negative ids included), predicates of every connective, and every
// action type plus an unknown one.
func TestRuleStringMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		r := randomRule(rng)
		if got, want := r.String(), sprintfString(r); got != want {
			t.Fatalf("rule %d:\n got %q\nwant %q", i, got, want)
		}
	}
	// The degenerate shapes: no match fields, no actions, only skipped ones.
	for _, r := range []Rule{
		{Match: Match{InPort: MatchAny, VLAN: MatchAny}},
		{Match: Match{InPort: MatchAny, VLAN: MatchAny}, Actions: []Action{unknownAction{}, unknownAction{}}},
		{Match: Match{InPort: MatchAny, VLAN: MatchAny}, Actions: []Action{unknownAction{}, Drop{}, unknownAction{}, StripVLAN{}}},
	} {
		if got, want := r.String(), sprintfString(r); got != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
}

func BenchmarkRuleString(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	rules := make([]Rule, 256)
	for i := range rules {
		rules[i] = randomRule(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rules[i%len(rules)].String()
	}
}
