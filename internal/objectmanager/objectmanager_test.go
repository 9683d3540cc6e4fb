package objectmanager

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ray/internal/gcs"
	"ray/internal/netsim"
	"ray/internal/objectstore"
	"ray/internal/types"
)

// fakeCluster implements PeerResolver over a map of stores.
type fakeCluster struct {
	mu     sync.Mutex
	stores map[types.NodeID]*objectstore.Store
	dead   map[types.NodeID]bool
}

func newFakeCluster() *fakeCluster {
	return &fakeCluster{stores: make(map[types.NodeID]*objectstore.Store), dead: make(map[types.NodeID]bool)}
}

func (f *fakeCluster) add(node types.NodeID, store *objectstore.Store) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stores[node] = store
}

func (f *fakeCluster) kill(node types.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dead[node] = true
}

func (f *fakeCluster) ResolveStore(node types.NodeID) (*objectstore.Store, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead[node] {
		return nil, false
	}
	s, ok := f.stores[node]
	return s, ok
}

type testEnv struct {
	gcs     *gcs.Store
	cluster *fakeCluster
	nodes   []types.NodeID
	mgrs    []*Manager
}

func newTestEnv(t *testing.T, n int, cfg Config) *testEnv {
	t.Helper()
	env := &testEnv{
		gcs:     gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1}),
		cluster: newFakeCluster(),
	}
	t.Cleanup(func() { _ = env.gcs.Close() })
	net := netsim.New(netsim.InstantConfig())
	for i := 0; i < n; i++ {
		id := types.NewNodeID()
		store := objectstore.New(objectstore.Config{CapacityBytes: 1 << 26})
		env.cluster.add(id, store)
		env.nodes = append(env.nodes, id)
		env.mgrs = append(env.mgrs, New(cfg, id, store, env.gcs, net, env.cluster))
	}
	return env
}

func TestPutRegistersLocation(t *testing.T) {
	env := newTestEnv(t, 1, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	creator := types.NewTaskID()
	if err := env.mgrs[0].Put(ctx, id, []byte("payload"), false, creator); err != nil {
		t.Fatal(err)
	}
	entry, ok, err := env.gcs.GetObject(ctx, id)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if !entry.HasLocation(env.nodes[0]) || entry.Size != 7 || entry.Creator != creator {
		t.Fatalf("location entry wrong: %+v", entry)
	}
	if env.mgrs[0].NodeID() != env.nodes[0] || env.mgrs[0].Local() == nil {
		t.Fatal("accessors wrong")
	}
}

func TestPullLocalIsNoop(t *testing.T) {
	env := newTestEnv(t, 1, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	if err := env.mgrs[0].Put(ctx, id, []byte("x"), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := env.mgrs[0].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	if env.mgrs[0].Stats().BytesPulled != 0 {
		t.Fatal("local pull should not transfer bytes")
	}
}

func TestPullFromRemote(t *testing.T) {
	env := newTestEnv(t, 2, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	payload := bytes.Repeat([]byte{7}, 4096)
	if err := env.mgrs[0].Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := env.mgrs[1].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	obj, ok := env.mgrs[1].Local().Get(id)
	if !ok || !bytes.Equal(obj.Data, payload) {
		t.Fatal("pulled object missing or corrupt")
	}
	// The new location must be registered in the GCS.
	entry, _, _ := env.gcs.GetObject(ctx, id)
	if len(entry.Locations) != 2 {
		t.Fatalf("expected 2 locations after pull, got %v", entry.Locations)
	}
	st := env.mgrs[1].Stats()
	if st.Pulls != 1 || st.BytesPulled != 4096 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestPullWaitsForCreation(t *testing.T) {
	env := newTestEnv(t, 2, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	errCh := make(chan error, 1)
	go func() {
		errCh <- env.mgrs[1].Pull(ctx, id)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-errCh:
		t.Fatalf("pull returned before object creation: %v", err)
	default:
	}
	if err := env.mgrs[0].Put(ctx, id, []byte("late"), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pull never completed after creation")
	}
	if !env.mgrs[1].Local().Contains(id) {
		t.Fatal("object not local after pull")
	}
}

func TestPullTimeoutUnknownObject(t *testing.T) {
	env := newTestEnv(t, 1, Config{TransferStreams: 1, PullTimeout: 50 * time.Millisecond})
	err := env.mgrs[0].Pull(context.Background(), types.NewObjectID())
	if !errors.Is(err, types.ErrObjectNotFound) {
		t.Fatalf("expected ErrObjectNotFound, got %v", err)
	}
}

func TestPullLostObjectReportsLost(t *testing.T) {
	env := newTestEnv(t, 2, Config{TransferStreams: 1, PullTimeout: 100 * time.Millisecond})
	ctx := context.Background()
	id := types.NewObjectID()
	if err := env.mgrs[0].Put(ctx, id, []byte("gone"), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	// Simulate the node failing: drop its store contents and remove the
	// location from the GCS.
	env.cluster.kill(env.nodes[0])
	if err := env.gcs.RemoveObjectLocation(ctx, id, env.nodes[0]); err != nil {
		t.Fatal(err)
	}
	err := env.mgrs[1].Pull(ctx, id)
	if !errors.Is(err, types.ErrObjectLost) {
		t.Fatalf("expected ErrObjectLost, got %v", err)
	}
}

func TestPullRetriesAcrossDeadReplica(t *testing.T) {
	env := newTestEnv(t, 3, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	payload := []byte("replicated")
	// Object lives on nodes 0 and 1; node 0 dies but its location entry is
	// stale. The pull must fall back to node 1.
	if err := env.mgrs[0].Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := env.mgrs[1].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	env.cluster.kill(env.nodes[0])
	if err := env.mgrs[2].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	obj, ok := env.mgrs[2].Local().Get(id)
	if !ok || !bytes.Equal(obj.Data, payload) {
		t.Fatal("pull with dead replica failed")
	}
}

func TestConcurrentPullsDeduplicated(t *testing.T) {
	env := newTestEnv(t, 2, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	payload := bytes.Repeat([]byte{1}, 1024)
	if err := env.mgrs[0].Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := env.mgrs[1].Pull(ctx, id); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Only one transfer should have happened despite 16 concurrent pulls.
	if pulled := env.mgrs[1].Stats().BytesPulled; pulled != 1024 {
		t.Fatalf("expected exactly one transfer (1024 bytes), got %d", pulled)
	}
}

func TestErrorObjectPropagatesFlag(t *testing.T) {
	env := newTestEnv(t, 2, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	if err := env.mgrs[0].Put(ctx, id, []byte("boom"), true, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := env.mgrs[1].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	obj, _ := env.mgrs[1].Local().Get(id)
	if !obj.IsError {
		t.Fatal("error flag lost during transfer")
	}
}

// chunkedConfig is a pipelined configuration with small chunks so modest test
// payloads exercise many windows.
func chunkedConfig() Config {
	return Config{TransferStreams: 4, ChunkBytes: 64 << 10, PipelineDepth: 2}
}

func TestChunkedPullAssemblesCorrectly(t *testing.T) {
	env := newTestEnv(t, 2, chunkedConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	// Deliberately not a multiple of the chunk size: the last chunk is short.
	payload := make([]byte, 1<<20+3)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	if err := env.mgrs[0].Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := env.mgrs[1].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	obj, ok := env.mgrs[1].Local().Get(id)
	if !ok || !bytes.Equal(obj.Data, payload) {
		t.Fatal("chunked pull missing or corrupt")
	}
	st := env.mgrs[1].Stats()
	// The 3-byte tail rides in the last chunk rather than costing its own.
	wantChunks := int64(len(payload) / (64 << 10))
	if st.ChunkedPulls != 1 || st.ChunksPulled != wantChunks {
		t.Fatalf("chunk accounting wrong: %+v (want %d chunks)", st, wantChunks)
	}
	if st.BytesPulled != int64(len(payload)) {
		t.Fatalf("bytes pulled %d, want %d", st.BytesPulled, len(payload))
	}
	// The new location is registered so a third node could pull from us.
	entry, _, _ := env.gcs.GetObject(ctx, id)
	if !entry.HasLocation(env.nodes[1]) {
		t.Fatal("chunked pull did not register the new location")
	}
}

func TestChunkedPullErrorFlagPreserved(t *testing.T) {
	env := newTestEnv(t, 2, chunkedConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	if err := env.mgrs[0].Put(ctx, id, make([]byte, 512<<10), true, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := env.mgrs[1].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	if obj, _ := env.mgrs[1].Local().Get(id); !obj.IsError {
		t.Fatal("error flag lost across chunked transfer")
	}
}

func TestConcurrentChunkedPullsDeduplicated(t *testing.T) {
	env := newTestEnv(t, 2, chunkedConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	payload := bytes.Repeat([]byte{9}, 768<<10)
	if err := env.mgrs[0].Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := env.mgrs[1].Pull(ctx, id); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if pulled := env.mgrs[1].Stats().BytesPulled; pulled != int64(len(payload)) {
		t.Fatalf("expected exactly one chunked transfer (%d bytes), got %d", len(payload), pulled)
	}
}

// killAfterResolver kills a node after its store has been resolved a fixed
// number of times, simulating a source dying mid-transfer.
type killAfterResolver struct {
	inner    *fakeCluster
	victim   types.NodeID
	mu       sync.Mutex
	resolves int
	after    int
}

func (k *killAfterResolver) ResolveStore(node types.NodeID) (*objectstore.Store, bool) {
	if node == k.victim {
		k.mu.Lock()
		k.resolves++
		if k.resolves > k.after {
			k.mu.Unlock()
			return nil, false
		}
		k.mu.Unlock()
	}
	return k.inner.ResolveStore(node)
}

func TestChunkedPullFailsOverWhenSourceDiesMidTransfer(t *testing.T) {
	env := newTestEnv(t, 2, chunkedConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	// Two replicas: nodes 0 and 1.
	if err := env.mgrs[0].Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := env.mgrs[1].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	// A third node whose resolver lets node 0 serve only the first couple of
	// window resolutions, then reports it dead: remaining windows must fail
	// over to node 1 without restarting the object.
	puller := types.NewNodeID()
	store := objectstore.New(objectstore.Config{CapacityBytes: 1 << 26})
	resolver := &killAfterResolver{inner: env.cluster, victim: env.nodes[0], after: 2}
	mgr := New(chunkedConfig(), puller, store, env.gcs, netsim.New(netsim.InstantConfig()), resolver)
	if err := mgr.Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	obj, ok := store.Get(id)
	if !ok || !bytes.Equal(obj.Data, payload) {
		t.Fatal("failover pull missing or corrupt")
	}
}

func TestChunkedPullFailsWhenAllReplicasDie(t *testing.T) {
	env := newTestEnv(t, 2, chunkedConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	if err := env.mgrs[0].Put(ctx, id, make([]byte, 512<<10), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	puller := types.NewNodeID()
	store := objectstore.New(objectstore.Config{CapacityBytes: 1 << 26})
	resolver := &killAfterResolver{inner: env.cluster, victim: env.nodes[0], after: 1}
	mgr := New(Config{TransferStreams: 2, ChunkBytes: 64 << 10, PipelineDepth: 1, PullTimeout: 100 * time.Millisecond},
		puller, store, env.gcs, netsim.New(netsim.InstantConfig()), resolver)
	err := mgr.Pull(ctx, id)
	if err == nil {
		t.Fatal("pull must fail when the only replica dies mid-transfer")
	}
	if store.Contains(id) {
		t.Fatal("failed pull must not leave a partial object visible")
	}
	if store.Used() != 0 {
		t.Fatalf("failed pull leaked reservation: used=%d", store.Used())
	}
}

func TestWaiterRetriesAfterOriginatorCancelled(t *testing.T) {
	env := newTestEnv(t, 2, DefaultConfig())
	id := types.NewObjectID()

	// Originator starts pulling an object that does not exist yet, under a
	// cancellable context.
	origCtx, cancelOrig := context.WithCancel(context.Background())
	origErr := make(chan error, 1)
	go func() { origErr <- env.mgrs[1].Pull(origCtx, id) }()

	// Waiter joins the same in-flight pull with a live context.
	time.Sleep(20 * time.Millisecond)
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- env.mgrs[1].Pull(context.Background(), id) }()
	time.Sleep(20 * time.Millisecond)

	// The originator's caller gives up: its pull fails with context.Canceled.
	cancelOrig()
	select {
	case err := <-origErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("originator should fail with its own cancellation, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("originator did not observe cancellation")
	}

	// The object is created; the waiter must have restarted the pull under
	// its own context rather than inheriting context.Canceled.
	if err := env.mgrs[0].Put(context.Background(), id, []byte("late arrival"), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waiterErr:
		if err != nil {
			t.Fatalf("waiter with a live context must retry and succeed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never completed")
	}
	if !env.mgrs[1].Local().Contains(id) {
		t.Fatal("object not local after retried pull")
	}
}

func TestCancelledWaiterStillFails(t *testing.T) {
	env := newTestEnv(t, 2, DefaultConfig())
	id := types.NewObjectID()
	origCtx, cancelOrig := context.WithCancel(context.Background())
	origErr := make(chan error, 1)
	go func() { origErr <- env.mgrs[1].Pull(origCtx, id) }()
	time.Sleep(20 * time.Millisecond)

	// A waiter whose own context is also cancelled must not retry forever.
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- env.mgrs[1].Pull(waiterCtx, id) }()
	time.Sleep(20 * time.Millisecond)
	cancelWaiter()
	cancelOrig()
	for _, ch := range []chan error{origErr, waiterErr} {
		select {
		case err := <-ch:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("expected context.Canceled, got %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("pull did not observe cancellation")
		}
	}
}

// TestCancelledChunkedPullResumesWithoutRefetch cancels a chunked pull part
// of the way through and restarts it: the parked assembly is reused, only the
// missing windows are fetched, and every chunk is counted exactly once — also
// for an 8 MiB + 1 byte object, whose tail byte rides in the last chunk.
func TestCancelledChunkedPullResumesWithoutRefetch(t *testing.T) {
	cases := []struct {
		name string
		size int
		// Slow enough that a pull can be cancelled mid-transfer: each window
		// takes 20–50 ms on its stream.
		net        netsim.Config
		cfg        Config
		wantChunks int64
	}{
		{
			name:       "8x32KiB",
			size:       256 << 10,
			net:        netsim.Config{BandwidthBytesPerSec: 1.6e6, MaxParallelStreams: 1, TimeScale: 1},
			cfg:        Config{TransferStreams: 1, ChunkBytes: 32 << 10, PipelineDepth: 1},
			wantChunks: 8,
		},
		{
			name:       "8MiB+1",
			size:       taggedSize,
			net:        netsim.Config{BandwidthBytesPerSec: 2e7, MaxParallelStreams: 1, TimeScale: 1},
			cfg:        Config{TransferStreams: 2, ChunkBytes: 1 << 20, PipelineDepth: 1},
			wantChunks: 8,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
			defer g.Close()
			cluster := newFakeCluster()
			net := netsim.New(tc.net)
			src, dst := types.NewNodeID(), types.NewNodeID()
			srcStore := objectstore.New(objectstore.Config{CapacityBytes: 1 << 26})
			dstStore := objectstore.New(objectstore.Config{CapacityBytes: 1 << 26})
			cluster.add(src, srcStore)
			cluster.add(dst, dstStore)
			mSrc := New(tc.cfg, src, srcStore, g, net, cluster)
			mDst := New(tc.cfg, dst, dstStore, g, net, cluster)

			ctx := context.Background()
			id := types.NewObjectID()
			payload := patterned(tc.size)
			if err := mSrc.Put(ctx, id, payload, false, types.NilTaskID); err != nil {
				t.Fatal(err)
			}

			// Start a pull and cancel it once a few windows have landed.
			pullCtx, cancel := context.WithCancel(ctx)
			errCh := make(chan error, 1)
			go func() { errCh <- mDst.Pull(pullCtx, id) }()
			deadline := time.Now().Add(5 * time.Second)
			for mDst.Stats().ChunksPulled < 2 {
				if time.Now().After(deadline) {
					t.Fatal("pull never made progress")
				}
				time.Sleep(time.Millisecond)
			}
			cancel()
			if err := <-errCh; err == nil {
				t.Fatal("cancelled pull must report an error")
			}
			fetchedBeforeResume := mDst.Stats().ChunksPulled
			if fetchedBeforeResume >= tc.wantChunks {
				t.Skip("transfer finished before cancellation landed; resume not exercised")
			}

			// Restart under a fresh context: the parked assembly must be
			// reused and only the missing windows fetched.
			if err := mDst.Pull(ctx, id); err != nil {
				t.Fatal(err)
			}
			obj, ok := dstStore.Get(id)
			if !ok || !bytes.Equal(obj.Data, payload) {
				t.Fatal("resumed pull produced a corrupt object")
			}
			st := mDst.Stats()
			if st.ChunksPulled != tc.wantChunks {
				t.Fatalf("no chunk may be transferred twice: fetched %d chunks, want %d", st.ChunksPulled, tc.wantChunks)
			}
			if st.ResumedPulls != 1 || st.ResumedWindows != fetchedBeforeResume {
				t.Fatalf("resume accounting wrong: %+v (windows done before resume: %d)", st, fetchedBeforeResume)
			}
		})
	}
}

// TestEvictThenRepullLocationConsistency reproduces the evict/re-put race:
// the eviction's asynchronous GCS location removal must not land after the
// same object has been re-admitted and re-registered, or the directory goes
// blind to a resident replica.
func TestEvictThenRepullLocationConsistency(t *testing.T) {
	ctx := context.Background()
	gstore := gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
	defer gstore.Close()
	cluster := newFakeCluster()
	nodeID := types.NewNodeID()
	objA := types.NewObjectID()
	objB := types.NewObjectID()

	callbackStarted := make(chan types.ObjectID, 8)
	store := objectstore.New(objectstore.Config{
		CapacityBytes: 1000,
		OnEvict: func(obj types.ObjectID, size int64) {
			select {
			case callbackStarted <- obj:
			default:
			}
			if obj == objA {
				// A slow directory update for the object under test: a wide
				// window for the re-put to race into.
				time.Sleep(30 * time.Millisecond)
			}
			_ = gstore.RemoveObjectLocation(context.Background(), obj, nodeID)
		},
	})
	cluster.add(nodeID, store)
	mgr := New(DefaultConfig(), nodeID, store, gstore, netsim.New(netsim.InstantConfig()), cluster)
	payload := make([]byte, 600)
	if err := mgr.Put(ctx, objA, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	// Putting B evicts A; run it on another goroutine so A's slow eviction
	// callback is in flight while we re-admit A.
	putBDone := make(chan error, 1)
	go func() { putBDone <- mgr.Put(ctx, objB, payload, false, types.NilTaskID) }()
	if got := <-callbackStarted; got != objA {
		t.Fatalf("expected eviction of %s, got %s", objA, got)
	}
	// Re-admit A while its eviction notification is still pending. The
	// location registration must order after the pending removal.
	if err := mgr.Put(ctx, objA, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := <-putBDone; err != nil {
		t.Fatal(err)
	}
	if !store.Contains(objA) {
		t.Fatal("re-admitted object not resident")
	}
	entry, ok, err := gstore.GetObject(ctx, objA)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if !entry.HasLocation(nodeID) {
		t.Fatalf("directory lost track of resident replica: locations=%v", entry.Locations)
	}
}

func TestWaiterRetriesAfterOriginatorDeadline(t *testing.T) {
	env := newTestEnv(t, 2, DefaultConfig())
	id := types.NewObjectID()

	// Originator pulls a not-yet-created object under a short deadline.
	origCtx, cancelOrig := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancelOrig()
	origErr := make(chan error, 1)
	go func() { origErr <- env.mgrs[1].Pull(origCtx, id) }()
	time.Sleep(15 * time.Millisecond)

	// Waiter joins with a live context before the originator's deadline.
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- env.mgrs[1].Pull(context.Background(), id) }()

	select {
	case err := <-origErr:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("originator should report its own deadline, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("originator did not observe its deadline")
	}
	// The object arrives late: the waiter must have restarted the pull
	// rather than inheriting the originator's deadline failure.
	if err := env.mgrs[0].Put(context.Background(), id, []byte("late"), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waiterErr:
		if err != nil {
			t.Fatalf("waiter with a live context must retry and succeed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never completed")
	}
}

// barrierResolver holds window fetches at ResolveStore until want of them
// are waiting at once, proving that many transfer streams run concurrently.
// The first skip resolutions pass straight through: a pull resolves each
// source once to filter live replicas and once to probe the object's size
// before any window starts.
type barrierResolver struct {
	inner   PeerResolver
	skip    int
	want    int
	release chan struct{}

	mu      sync.Mutex
	calls   int
	waiting int
	peak    int
}

func newBarrierResolver(inner PeerResolver, skip, want int) *barrierResolver {
	return &barrierResolver{inner: inner, skip: skip, want: want, release: make(chan struct{})}
}

func (b *barrierResolver) ResolveStore(node types.NodeID) (*objectstore.Store, bool) {
	b.mu.Lock()
	b.calls++
	if b.calls <= b.skip {
		b.mu.Unlock()
		return b.inner.ResolveStore(node)
	}
	b.waiting++
	b.peak = max(b.peak, b.waiting)
	select {
	case <-b.release:
	default:
		if b.waiting == b.want {
			close(b.release)
		}
	}
	b.mu.Unlock()
	select {
	case <-b.release:
	case <-time.After(2 * time.Second):
	}
	b.mu.Lock()
	b.waiting--
	b.mu.Unlock()
	return b.inner.ResolveStore(node)
}

// taggedSize is the size of an encoded 8 MiB []byte: the codec's tag byte
// spills past the last whole 1 MiB chunk.
const taggedSize = 8<<20 + 1

// patterned returns an n-byte payload whose bytes vary with their offset, so
// a misplaced or missing window shows up as a mismatch.
func patterned(n int) []byte {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	return payload
}

func TestTaggedPullUsesOneWindowPerStream(t *testing.T) {
	env := newTestEnv(t, 1, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	payload := patterned(taggedSize)
	if err := env.mgrs[0].Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	puller := types.NewNodeID()
	store := objectstore.New(objectstore.Config{CapacityBytes: 1 << 26})
	resolver := newBarrierResolver(env.cluster, 2, 8)
	mgr := New(DefaultConfig(), puller, store, env.gcs, netsim.New(netsim.InstantConfig()), resolver)
	if err := mgr.Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	obj, ok := store.Get(id)
	if !ok || !bytes.Equal(obj.Data, payload) {
		t.Fatal("pull of an 8 MiB + 1 byte object missing or corrupt")
	}
	if resolver.peak != 8 {
		t.Fatalf("%d windows in flight at once, want all 8 streams busy", resolver.peak)
	}
	if got := resolver.calls - resolver.skip; got != 8 {
		t.Fatalf("%d window fetches, want 8", got)
	}
	if st := mgr.Stats(); st.ChunkedPulls != 1 || st.ChunksPulled != 8 {
		t.Fatalf("chunk accounting wrong: %+v (want 8 chunks)", st)
	}
}
