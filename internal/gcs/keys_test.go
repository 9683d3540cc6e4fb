package gcs

import (
	"context"
	"testing"

	"ray/internal/task"
	"ray/internal/types"
)

// TestIDKeysAreFixedWidthBinary: every ID-keyed table key is its text
// prefix plus the 16 raw ID bytes, and flushableKey still selects finished
// task entries by that prefix and nothing else.
func TestIDKeysAreFixedWidthBinary(t *testing.T) {
	id := types.UniqueID{0x00, 0x2f, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0x80}
	for _, tc := range []struct {
		key, prefix string
	}{
		{objectKey(types.ObjectID(id)), keyPrefixObject},
		{taskKey(types.TaskID(id)), keyPrefixTask},
		{actorKey(types.ActorID(id)), keyPrefixActor},
		{nodeKey(types.NodeID(id)), keyPrefixNode},
		{jobKey(types.JobID(id)), keyPrefixJob},
	} {
		if len(tc.key) != len(tc.prefix)+types.IDSize {
			t.Errorf("%q: %d bytes, want len(%q)+%d", tc.key, len(tc.key), tc.prefix, types.IDSize)
		}
		if !hasPrefix(tc.key, tc.prefix) || tc.key[len(tc.prefix):] != string(id[:]) {
			t.Errorf("%q is not %q followed by the raw ID bytes", tc.key, tc.prefix)
		}
	}
	if taskKey(types.NewTaskID()) == taskKey(types.NewTaskID()) {
		t.Fatal("distinct task IDs share a key")
	}

	spec := &task.Spec{ID: types.TaskID(id), Function: "f", NumReturns: 1}
	entry := func(status types.TaskStatus) []byte {
		return (&TaskEntry{Spec: spec, Status: status}).marshal()
	}
	for _, tc := range []struct {
		key   string
		value []byte
		want  bool
	}{
		{taskKey(spec.ID), entry(types.TaskFinished), true},
		{taskKey(spec.ID), entry(types.TaskFailed), true},
		{taskKey(spec.ID), entry(types.TaskPending), false},
		{taskKey(spec.ID), entry(types.TaskRunning), false},
		// A finished-looking value under any other table's key stays resident.
		{objectKey(types.ObjectID(id)), entry(types.TaskFinished), false},
		{actorKey(types.ActorID(id)), entry(types.TaskFinished), false},
		{nodeKey(types.NodeID(id)), entry(types.TaskFinished), false},
		{jobKey(types.JobID(id)), entry(types.TaskFinished), false},
	} {
		if got := flushableKey(tc.key, tc.value); got != tc.want {
			t.Errorf("flushableKey(%q, status %d) = %v, want %v", tc.key, tc.value[0], got, tc.want)
		}
	}
}

// TestNodesAndJobsSortedByID: Nodes and Jobs (on equal start times) list
// entries in ascending ID order, which is the order of their hex forms.
func TestNodesAndJobsSortedByID(t *testing.T) {
	s := newTestStore(t)
	ctx := context.Background()
	raw := []types.UniqueID{{0xff}, {0x0a, 0xff}, {0xa0}, {0x0a, 0x0f}, {15: 1}, {0x00, 0x00, 0x01}}
	for _, id := range raw {
		if err := s.RegisterNode(ctx, &NodeEntry{ID: types.NodeID(id), State: types.NodeAlive}); err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterJob(ctx, &JobEntry{ID: types.JobID(id), Name: "j", StartUnixNano: 42}); err != nil {
			t.Fatal(err)
		}
	}
	nodes, err := s.Nodes(ctx)
	if err != nil || len(nodes) != len(raw) {
		t.Fatalf("nodes: %d, %v", len(nodes), err)
	}
	jobs, err := s.Jobs(ctx)
	if err != nil || len(jobs) != len(raw) {
		t.Fatalf("jobs: %d, %v", len(jobs), err)
	}
	for i := 1; i < len(raw); i++ {
		if nodes[i-1].ID.Hex() >= nodes[i].ID.Hex() {
			t.Errorf("Nodes out of hex order at %d: %s before %s", i, nodes[i-1].ID.Hex(), nodes[i].ID.Hex())
		}
		if jobs[i-1].ID.Hex() >= jobs[i].ID.Hex() {
			t.Errorf("Jobs out of hex order at %d: %s before %s", i, jobs[i-1].ID.Hex(), jobs[i].ID.Hex())
		}
	}
}
