package objectstore

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ray/internal/codec"
	"ray/internal/types"
)

func spillPath(dir string, id types.ObjectID) string {
	return filepath.Join(dir, id.String()+".obj")
}

func TestSpillAndRestore(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{CapacityBytes: 100, SpillDir: dir})
	a := types.NewObjectID()
	b := types.NewObjectID()
	payload := bytes.Repeat([]byte("a"), 60)
	if err := s.PutPrimary(a, payload, false); err != nil {
		t.Fatal(err)
	}
	// B displaces A: A is primary, so it spills instead of evicting.
	if err := s.PutPrimary(b, bytes.Repeat([]byte("b"), 60), false); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Spills != 1 || st.Evictions != 0 {
		t.Fatalf("expected 1 spill and 0 evictions, got %+v", st)
	}
	if !s.Contains(a) {
		t.Fatal("spilled object must still count as local")
	}
	if s.SpilledBytes() != 60 {
		t.Fatalf("spilled bytes: %d", s.SpilledBytes())
	}
	if _, err := os.Stat(spillPath(dir, a)); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}
	// Get restores transparently (displacing B in turn).
	obj, ok := s.Get(a)
	if !ok || !bytes.Equal(obj.Data, payload) {
		t.Fatal("restore returned wrong payload")
	}
	if s.Stats().Restores != 1 {
		t.Fatal("restore not counted")
	}
	if _, err := os.Stat(spillPath(dir, a)); !os.IsNotExist(err) {
		t.Fatal("spill file should be removed after restore")
	}
	if s.SpilledBytes() != 60 { // B spilled during the restore
		t.Fatalf("expected B spilled, spilled bytes=%d", s.SpilledBytes())
	}
}

// TestAdoptedBufferSurvivesSpill: a primary copy adopted without a copy
// spills and restores byte-exact, the caller's buffer is left untouched, and
// a []byte decoded from the restored copy (whose file-backed buffer has
// spare capacity) is still a clipped read-only view.
func TestAdoptedBufferSurvivesSpill(t *testing.T) {
	s := New(Config{CapacityBytes: 100, SpillDir: t.TempDir()})
	a := types.NewObjectID()
	payload := codec.MustEncode([]byte("an adopted, spilled and restored payload"))
	want := bytes.Clone(payload)
	if err := s.PutPrimary(a, payload, false); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPrimary(types.NewObjectID(), bytes.Repeat([]byte("b"), 60), false); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Spills != 1 {
		t.Fatalf("expected the adopted object to spill, got %+v", st)
	}
	obj, ok := s.Get(a)
	if !ok || !bytes.Equal(obj.Data, want) || !bytes.Equal(payload, want) {
		t.Fatal("adopted buffer did not survive spill and restore byte-exact")
	}
	if s.Stats().Restores != 1 {
		t.Fatal("restore not counted")
	}
	var view []byte
	if err := codec.Decode(obj.Data, &view); err != nil {
		t.Fatal(err)
	}
	if cap(view) != len(view) || !bytes.Equal(view, want[1:]) {
		t.Fatalf("decoded view of a restored object: len %d cap %d", len(view), cap(view))
	}
}

func TestReplicaEvictsInsteadOfSpilling(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var evicted []types.ObjectID
	s := New(Config{CapacityBytes: 100, SpillDir: dir, OnEvict: func(id types.ObjectID, size int64) {
		mu.Lock()
		evicted = append(evicted, id)
		mu.Unlock()
	}})
	replica := types.NewObjectID()
	if err := s.Put(replica, bytes.Repeat([]byte("r"), 60), false); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPrimary(types.NewObjectID(), bytes.Repeat([]byte("p"), 60), false); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Spills != 0 {
		t.Fatalf("replica must evict, not spill: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 1 || evicted[0] != replica {
		t.Fatalf("eviction callback wrong: %v", evicted)
	}
	if s.Contains(replica) {
		t.Fatal("evicted replica must be gone")
	}
}

func TestMissingSpillFileWithdrawsLocation(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var evicted []types.ObjectID
	s := New(Config{CapacityBytes: 100, SpillDir: dir, OnEvict: func(id types.ObjectID, size int64) {
		mu.Lock()
		evicted = append(evicted, id)
		mu.Unlock()
	}})
	a := types.NewObjectID()
	if err := s.PutPrimary(a, bytes.Repeat([]byte("a"), 60), false); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPrimary(types.NewObjectID(), bytes.Repeat([]byte("b"), 60), false); err != nil {
		t.Fatal(err)
	}
	// Simulate losing the spill copy.
	if err := os.Remove(spillPath(dir, a)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(a); ok {
		t.Fatal("restore from a missing file must miss")
	}
	if s.Stats().RestoreErrors != 1 {
		t.Fatal("restore error not counted")
	}
	if s.Contains(a) {
		t.Fatal("object with lost spill copy must no longer be local")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 1 || evicted[0] != a {
		t.Fatalf("lost spill copy must fire the eviction callback (location withdrawal): %v", evicted)
	}
}

func TestGetPinRestoresPinned(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{CapacityBytes: 100, SpillDir: dir})
	a := types.NewObjectID()
	if err := s.PutPrimary(a, bytes.Repeat([]byte("a"), 60), false); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPrimary(types.NewObjectID(), bytes.Repeat([]byte("b"), 60), false); err != nil {
		t.Fatal(err)
	}
	obj, ok := s.GetPin(a)
	if !ok || len(obj.Data) != 60 {
		t.Fatal("GetPin must restore the spilled object")
	}
	// The restored object is pinned: it cannot be deleted until Unpin.
	if s.Delete(a) {
		t.Fatal("pinned restore must refuse deletion")
	}
	s.Unpin(a)
	if !s.Delete(a) {
		t.Fatal("unpinned object must delete")
	}
}

func TestDeleteRemovesSpillCopy(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{CapacityBytes: 100, SpillDir: dir})
	a := types.NewObjectID()
	if err := s.PutPrimary(a, bytes.Repeat([]byte("a"), 60), false); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPrimary(types.NewObjectID(), bytes.Repeat([]byte("b"), 60), false); err != nil {
		t.Fatal(err)
	}
	if !s.Delete(a) {
		t.Fatal("delete of spilled object must succeed")
	}
	if s.Contains(a) || s.SpilledBytes() != 0 {
		t.Fatal("spill record must be gone")
	}
	if _, err := os.Stat(spillPath(dir, a)); !os.IsNotExist(err) {
		t.Fatal("spill file must be removed on delete")
	}
}

func TestWaitReturnsSpilledObject(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{CapacityBytes: 100, SpillDir: dir})
	a := types.NewObjectID()
	if err := s.PutPrimary(a, bytes.Repeat([]byte("a"), 60), false); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPrimary(types.NewObjectID(), bytes.Repeat([]byte("b"), 60), false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	obj, err := s.Wait(ctx, a)
	if err != nil || len(obj.Data) != 60 {
		t.Fatalf("Wait must restore a spilled object: %v", err)
	}
}

func TestDropAllRemovesSpillFiles(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{CapacityBytes: 100, SpillDir: dir})
	a := types.NewObjectID()
	b := types.NewObjectID()
	if err := s.PutPrimary(a, bytes.Repeat([]byte("a"), 60), false); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPrimary(b, bytes.Repeat([]byte("b"), 60), false); err != nil {
		t.Fatal(err)
	}
	dropped := s.DropAll()
	if len(dropped) != 2 {
		t.Fatalf("DropAll must drop resident and spilled objects: %v", dropped)
	}
	if _, err := os.Stat(spillPath(dir, a)); !os.IsNotExist(err) {
		t.Fatal("spill file must be removed by DropAll")
	}
	if got := s.List(); len(got) != 0 {
		t.Fatalf("store not empty after DropAll: %v", got)
	}
}
