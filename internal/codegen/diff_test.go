package codegen

import (
	"reflect"
	"testing"

	"merlin/internal/topo"
)

func TestDiffSizeAndDevices(t *testing.T) {
	old := &OpenFlowArtifact{Queues: []QueueConfig{{Switch: 3, Port: 1, Queue: 1, MinBps: 5e6}}}
	new := &OpenFlowArtifact{Queues: []QueueConfig{{Switch: 3, Port: 1, Queue: 1, MinBps: 6e6}}}
	d := &Diff{Backends: map[string]ArtifactDiff{
		TargetOpenFlow: DiffArtifacts(TargetOpenFlow, old, new),
		TargetTC: DiffArtifacts(TargetTC,
			&TCArtifact{TC: []HostCommand{{Host: 7, Kind: "tc", Command: "tc old"}}},
			&TCArtifact{TC: []HostCommand{{Host: 7, Kind: "tc", Command: "tc new"}}}),
		TargetHost: DiffArtifacts(TargetHost, nil, &HostArtifact{}),
	}}
	if install, remove := d.Size(); install != 2 || remove != 2 {
		t.Fatalf("Size = %d/%d, want 2/2", install, remove)
	}
	if d.Empty() {
		t.Fatal("non-empty diff reported empty")
	}
	if devs := d.Devices(); !reflect.DeepEqual(devs, []topo.NodeID{3, 7}) {
		t.Fatalf("devices = %v, want [3 7]", devs)
	}
	if !(&Diff{}).Empty() {
		t.Fatal("zero diff not empty")
	}
}

func TestDiffArtifactsEqualReorderedAndNil(t *testing.T) {
	q1 := QueueConfig{Switch: 3, Port: 1, Queue: 1, MinBps: 5e6}
	q2 := QueueConfig{Switch: 4, Port: 2, Queue: 1, MinBps: 7e6}
	art := &OpenFlowArtifact{Queues: []QueueConfig{q1, q2}}
	// Equal-by-value but distinct artifacts diff as empty.
	clone := &OpenFlowArtifact{Queues: append([]QueueConfig(nil), art.Queues...)}
	if d := DiffArtifacts(TargetOpenFlow, art, clone); !d.Empty() {
		t.Fatalf("equal artifacts diffed: %+v", d)
	}
	// Reordered entries diff as empty (multiset semantics).
	swapped := &OpenFlowArtifact{Queues: []QueueConfig{q2, q1}}
	if d := DiffArtifacts(TargetOpenFlow, art, swapped); !d.Empty() {
		t.Fatalf("reordered artifacts diffed: %+v", d)
	}
	// Duplicates count: one copy more installs one entry.
	dup := &OpenFlowArtifact{Queues: []QueueConfig{q1, q2, q1}}
	if d := DiffArtifacts(TargetOpenFlow, art, dup); len(d.Install) != 1 || len(d.Remove) != 0 {
		t.Fatalf("duplicate entry diff wrong: %+v", d)
	}
	// nil acts as empty: everything removes.
	if d := DiffArtifacts(TargetOpenFlow, art, nil); len(d.Remove) != 2 || len(d.Install) != 0 {
		t.Fatalf("nil-new diff wrong: %+v", d)
	}
}
