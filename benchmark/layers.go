package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ray/internal/codec"
	"ray/internal/gcs"
	"ray/internal/objectstore"
	"ray/internal/resources"
	"ray/internal/task"
	"ray/internal/types"
	"ray/ray"
)

// readCounters reads every layer's public Stats() as one flat set of named
// counters, summed over nodes. Per-layer metrics are deltas of these over
// the traced schedule.
func readCounters(rt *ray.Runtime) map[string]float64 {
	cl := rt.Cluster()
	g := cl.GCS().Stats()
	cs := cl.Stats()
	m := map[string]float64{
		"gcs.gets":                 float64(g.Gets),
		"gcs.puts":                 float64(g.Puts),
		"gcs.batch_commits":        float64(g.BatchCommits),
		"gcs.batched_writes":       float64(g.BatchedWrites),
		"gcs.coalesced":            float64(g.BatchCoalesced),
		"gcs.flushed_bytes":        float64(g.FlushedBytes),
		"gcs.resident_bytes":       float64(g.ResidentBytes),
		"gcs.flush_errors":         float64(g.FlushErrors),
		"cluster.forwards":         float64(cs.Forwards),
		"cluster.actor_routes":     float64(cs.ActorRoutes),
		"cluster.global_decisions": float64(cs.GlobalDecisions),
	}
	for _, n := range cl.NodeList() {
		ls := n.LocalScheduler().Stats()
		m["scheduler.forwarded"] += float64(ls.Forwarded)
		m["scheduler.failed"] += float64(ls.Failed)
		ps := n.Workers().Stats()
		m["worker.runs"] += float64(ps.TasksRun + ps.MethodsRun)
		m["worker.app_errors"] += float64(ps.AppErrors)
		m["lineage.reconstructed_tasks"] += float64(n.Reconstructor().Stats().ReconstructedTasks)
		st := n.Store().Stats()
		m["objectstore.puts"] += float64(st.Puts)
		m["objectstore.gets"] += float64(st.Gets)
		m["objectstore.hits"] += float64(st.Hits)
		m["objectstore.evictions"] += float64(st.Evictions)
		m["objectstore.spills"] += float64(st.Spills)
		om := n.ObjectManager().Stats()
		m["objectmanager.pulls"] += float64(om.Pulls)
		m["objectmanager.bytes_pulled"] += float64(om.BytesPulled)
		m["objectmanager.transfer_ns"] += float64(om.TransferNanos)
		m["objectmanager.chunks"] += float64(om.ChunksPulled)
		m["objectmanager.chunked_pulls"] += float64(om.ChunkedPulls)
		m["objectmanager.resumed_pulls"] += float64(om.ResumedPulls)
	}
	return m
}

// timing is the median cost of one call over several timed batches.
type timing struct {
	ns, allocs float64
}

// timeCalls runs fn n times per batch for five batches and returns the
// median per-call time and allocation count. fn gets the call index, so
// calls that need distinct keys can derive them.
func timeCalls(n int, fn func(i int) error) (timing, error) {
	const batches = 5
	nsPer := make([]float64, 0, batches)
	allocsPer := make([]float64, 0, batches)
	var ms runtime.MemStats
	i := 0
	for range batches {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		for range n {
			if err := fn(i); err != nil {
				return timing{}, err
			}
			i++
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		nsPer = append(nsPer, float64(elapsed.Nanoseconds())/float64(n))
		allocsPer = append(allocsPer, float64(ms.Mallocs-before)/float64(n))
	}
	return timing{ns: median(nsPer), allocs: median(allocsPer)}, nil
}

// callsFor sizes a batch so that a call of the given rough cost takes about
// 20 ms per batch.
func callsFor(bytes int) int {
	return max(4, min(20000, 20_000_000/max(bytes, 1000)))
}

// timeCodec times codec.Encode and codec.Decode on the workload's own
// payload type.
func timeCodec(v any, out map[string]float64) error {
	enc, err := codec.Encode(v)
	if err != nil {
		return err
	}
	n := callsFor(len(enc))
	e, err := timeCalls(n, func(int) error { _, err := codec.Encode(v); return err })
	if err != nil {
		return err
	}
	decodeInto := func() any {
		switch v.(type) {
		case []byte:
			return new([]byte)
		case []float64:
			return new([]float64)
		default:
			return new(int64)
		}
	}
	d, err := timeCalls(n, func(int) error { return codec.Decode(enc, decodeInto()) })
	if err != nil {
		return err
	}
	out["codec.encode_ns"], out["codec.encode_allocs"] = e.ns, e.allocs
	out["codec.decode_ns"], out["codec.decode_allocs"] = d.ns, d.allocs
	out["codec.encoded_bytes"] = float64(len(enc))
	return nil
}

// timeGCS times the object-directory and task-table calls on a private
// store built with the runtime's shard, replication and batching settings.
func timeGCS(ctx context.Context, cfg ray.Config, out map[string]float64) error {
	s := gcs.New(gcs.Config{
		Shards:             cfg.GCSShards,
		ReplicationFactor:  cfg.GCSReplication,
		SyncWrites:         cfg.SyncWrites,
		BatchFlushInterval: cfg.GCSBatchFlushInterval,
		BatchMaxEntries:    cfg.GCSBatchMaxEntries,
	})
	defer s.Close()
	const n = 2000
	ids := make([]types.ObjectID, 5*n)
	for i := range ids {
		ids[i] = types.NewObjectID()
	}
	node, job, creator := types.NewNodeID(), types.NewJobID(), types.NewTaskID()
	add, err := timeCalls(n, func(i int) error {
		return s.AddObjectLocation(ctx, ids[i], node, 16, creator, job)
	})
	if err != nil {
		return fmt.Errorf("gcs AddObjectLocation: %w", err)
	}
	get, err := timeCalls(n, func(i int) error {
		_, ok, err := s.GetObject(ctx, ids[i])
		if err == nil && !ok {
			err = fmt.Errorf("object %d missing", i)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("gcs GetObject: %w", err)
	}
	arg, err := codec.Encode(int64(1) << 40)
	if err != nil {
		return err
	}
	addTask, err := timeCalls(n, func(int) error {
		spec := &task.Spec{
			ID: types.NewTaskID(), Job: job, Function: "square",
			Args: []task.Arg{task.ValueArg(arg)}, NumReturns: 1, Resources: resources.CPUs(1),
		}
		return s.AddTask(ctx, spec)
	})
	if err != nil {
		return fmt.Errorf("gcs AddTask: %w", err)
	}
	out["gcs.add_location_ns"], out["gcs.add_location_allocs"] = add.ns, add.allocs
	out["gcs.get_object_ns"] = get.ns
	out["gcs.add_task_ns"] = addTask.ns
	return nil
}

// timeObjectStore times Put and Get on a private store at the workload's
// object size (the encoded payload, as the runtime stores it).
func timeObjectStore(v any, out map[string]float64) error {
	data, err := codec.Encode(v)
	if err != nil {
		return err
	}
	s := objectstore.New(objectstore.DefaultConfig())
	n := callsFor(len(data))
	ids := make([]types.ObjectID, n)
	for i := range ids {
		ids[i] = types.NewObjectID()
	}
	var putNs []float64
	for range 5 {
		start := time.Now()
		for i := range n {
			if err := s.Put(ids[i], data, false); err != nil {
				return fmt.Errorf("objectstore Put: %w", err)
			}
		}
		putNs = append(putNs, float64(time.Since(start).Nanoseconds())/float64(n))
		for i := range n {
			s.Delete(ids[i])
		}
	}
	id := ids[0]
	if err := s.Put(id, data, false); err != nil {
		return fmt.Errorf("objectstore Put: %w", err)
	}
	get, err := timeCalls(n, func(int) error {
		if _, ok := s.Get(id); !ok {
			return fmt.Errorf("objectstore Get: object missing")
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["objectstore.put_ns"] = median(putNs)
	out["objectstore.get_ns"] = get.ns
	return nil
}
