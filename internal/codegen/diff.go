package codegen

import (
	"sort"

	"merlin/internal/topo"
)

// Diff is the device-level delta between two compiled results: the
// entries a controller must install and remove to move the dataplane from
// one compiled state to the next. It is what the incremental compiler
// returns for a policy update, so a negotiation tick touches only the
// devices it actually changed instead of reinstalling the full
// configuration (§4's dynamic-adaptation story).
type Diff struct {
	// Backends holds one native-form delta per compiled target, built-ins
	// included, keyed by backend name — each computed by that backend's
	// Diff from its own artifacts.
	Backends map[string]ArtifactDiff
}

// Empty reports whether the diff changes nothing on any backend.
func (d *Diff) Empty() bool {
	for _, bd := range d.Backends {
		if !bd.Empty() {
			return false
		}
	}
	return true
}

// Size totals the entries to install and to remove over every target.
func (d *Diff) Size() (install, remove int) {
	for _, bd := range d.Backends {
		install += len(bd.Install)
		remove += len(bd.Remove)
	}
	return install, remove
}

// Devices lists the distinct nodes the diff touches, in ascending order.
func (d *Diff) Devices() []topo.NodeID {
	seen := map[topo.NodeID]bool{}
	for _, bd := range d.Backends {
		for _, e := range bd.Install {
			seen[e.Device] = true
		}
		for _, e := range bd.Remove {
			seen[e.Device] = true
		}
	}
	out := make([]topo.NodeID, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// diffEntries returns the multiset differences new−old (to install) and
// old−new (to remove), each in its slice's original order.
func diffEntries(new, old []Entry) (install, remove []Entry) {
	oldCount := make(map[Entry]int, len(old))
	for _, e := range old {
		oldCount[e]++
	}
	for _, e := range new {
		if oldCount[e] > 0 {
			oldCount[e]--
			continue
		}
		install = append(install, e)
	}
	// The residual counts are exactly the old−new multiset, so the
	// removals fall out of one more pass over old.
	for _, e := range old {
		if oldCount[e] > 0 {
			oldCount[e]--
			remove = append(remove, e)
		}
	}
	return install, remove
}
