package main

import (
	"sync"
	"sync/atomic"
	"time"

	"ray/internal/types"
	"ray/ray"
)

const (
	// clients closed-loop client goroutines drive the cluster, one driver
	// each, attached to nodes 0 and 1.
	clients = 2
	// nodes is ray.DefaultConfig's cluster size.
	nodes = 4
	// opTimeout is the longest an op may take before it counts as failed.
	opTimeout = 10 * time.Second
)

// clock is nanoseconds since the run's epoch, on the monotonic clock.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// bodyClock records when each remote body starts and ends, keyed by the
// body's return object, while tracing is on. The benchmark's own remote
// functions call it on their first and last lines; nothing inside the
// runtime is instrumented.
type bodyClock struct {
	clock
	on     atomic.Bool
	shards [64]bodyShard
}

type bodyShard struct {
	mu sync.Mutex
	m  map[types.ObjectID][2]int64
}

func newBodyClock(c clock) *bodyClock {
	b := &bodyClock{clock: c}
	for i := range b.shards {
		b.shards[i].m = make(map[types.ObjectID][2]int64)
	}
	return b
}

// start returns the body's start time, or -1 when tracing is off.
func (b *bodyClock) start() int64 {
	if !b.on.Load() {
		return -1
	}
	return b.now()
}

// end records [start, now] for the running task's first return object.
func (b *bodyClock) end(ctx *ray.Context, start int64) {
	if start < 0 {
		return
	}
	end := b.now()
	id := types.ReturnObjectID(ctx.TaskID, 0)
	s := &b.shards[id[15]%byte(len(b.shards))]
	s.mu.Lock()
	s.m[id] = [2]int64{start, end}
	s.mu.Unlock()
}

// take removes and returns the body times recorded for id.
func (b *bodyClock) take(id types.ObjectID) ([2]int64, bool) {
	s := &b.shards[id[15]%byte(len(b.shards))]
	s.mu.Lock()
	t, ok := s.m[id]
	delete(s.m, id)
	s.mu.Unlock()
	return t, ok
}

// op is one unit of work as a client sees it. Times are ns since the epoch.
type op struct {
	id                        int64
	traced                    bool
	failed                    bool
	start, submitted, getting int64
}

// opSpans is a traced op's timeline: the client's own marks plus the body
// times its remote function recorded.
type opSpans struct {
	id                             int64
	start, submitted, getting, end int64
	bodyStart, bodyEnd             int64
}

// putSpan is one traced ray.Put.
type putSpan struct{ start, end int64 }

// tally accumulates the ops that completed within one block of the run.
type tally struct {
	ops, failed int64
	bytes       int64
	latencies   []int64 // ns, successful ops only
	spans       []opSpans
	unmatched   int64 // traced ops whose body times were not recorded
	puts        []putSpan
}

// schedule is shared by the clients and the run's controller. The current
// block index is -1 during warm-up and len(tallies) after the last
// block; ops that end outside every block are not measured, but their
// failures still count.
type schedule struct {
	cur    atomic.Int32
	traced []bool
	stop   chan struct{}
	bodies *bodyClock
	opSeq  atomic.Int64
	// outside counts failed ops that ended outside every block.
	outside atomic.Int64
}

// client is one closed-loop client's recorder. Only its goroutine writes
// to it until the run has stopped.
type client struct {
	id      int
	sched   *schedule
	tallies []tally
}

func newClient(id int, sched *schedule) *client {
	return &client{id: id, sched: sched, tallies: make([]tally, len(sched.traced))}
}

func (c *client) stopped() bool {
	select {
	case <-c.sched.stop:
		return true
	default:
		return false
	}
}

// tracing reports whether the current block records spans.
func (c *client) tracing() bool {
	s := int(c.sched.cur.Load())
	return s >= 0 && s < len(c.sched.traced) && c.sched.traced[s]
}

func (c *client) begin() op {
	return op{id: c.sched.opSeq.Add(1), traced: c.tracing(), start: c.sched.bodies.now()}
}

// submitted marks the Remote call's return; a submission error fails the op.
func (c *client) submitted(o *op, err error) {
	o.submitted = c.sched.bodies.now()
	if err != nil {
		o.failed = true
	}
}

// getting marks the start of the op's ray.Get.
func (c *client) getting(o *op) { o.getting = c.sched.bodies.now() }

// finish records the op's checked outcome. An op whose value was wrong,
// whose call failed or that took longer than opTimeout is a failure and is
// kept out of the latency samples.
func (c *client) finish(o *op, ret types.ObjectID, ok bool, bytes int64) {
	end := c.sched.bodies.now()
	ok = ok && !o.failed && time.Duration(end-o.start) <= opTimeout
	var body [2]int64
	var traced bool
	if o.traced {
		body, traced = c.sched.bodies.take(ret)
	}
	s := int(c.sched.cur.Load())
	if s < 0 || s >= len(c.tallies) {
		if !ok {
			c.sched.outside.Add(1)
		}
		return
	}
	t := &c.tallies[s]
	t.ops++
	if !ok {
		t.failed++
		return
	}
	t.bytes += bytes
	t.latencies = append(t.latencies, end-o.start)
	if !o.traced || !c.sched.traced[s] {
		return
	}
	if !traced {
		t.unmatched++
		return
	}
	t.spans = append(t.spans, opSpans{
		id: o.id, start: o.start, submitted: o.submitted, getting: o.getting, end: end,
		bodyStart: body[0], bodyEnd: body[1],
	})
}

// putStart and putEnd time one ray.Put when the block is traced.
func (c *client) putStart() int64 {
	if !c.tracing() {
		return -1
	}
	return c.sched.bodies.now()
}

func (c *client) putEnd(start int64) {
	if start < 0 {
		return
	}
	end := c.sched.bodies.now()
	if s := int(c.sched.cur.Load()); s >= 0 && s < len(c.tallies) && c.sched.traced[s] {
		c.tallies[s].puts = append(c.tallies[s].puts, putSpan{start, end})
	}
}
