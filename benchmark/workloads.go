package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"

	"ray/internal/netsim"
	"ray/ray"
)

// A workload is one closed-loop load shape. A fresh instance is built for
// every set-up (registration is per runtime); its inputs come from the seed
// and are generated once, before any set-up is timed.
type workload interface {
	// register declares the workload's remote functions and actor classes.
	register(rt *ray.Runtime, clock *bodyClock) error
	// prepare finishes set-up once the drivers are attached (actors
	// constructed and confirmed alive).
	prepare(drivers []*ray.Driver) error
	// run is client c's closed loop; it returns once c.stopped() is true.
	run(c *client, d *ray.Driver)
	// sample is a value of the workload's own payload type, for the codec
	// timings.
	sample() any
}

// workloadSpec names a workload, its network and its input generator.
type workloadSpec struct {
	name    string
	network func() netsim.Config
	inputs  func(seed int64) func() workload
}

var workloads = []workloadSpec{
	{name: "tasks", network: netsim.InstantConfig, inputs: newTasksInputs},
	{name: "objects", network: paperNetwork, inputs: newObjectsInputs},
	{name: "actors", network: netsim.InstantConfig, inputs: newActorsInputs},
}

// paperNetwork is the paper's testbed interconnect (25 Gbps, 100 µs per
// message) in real time, so transfers cost what they would on that network.
func paperNetwork() netsim.Config {
	cfg := netsim.DefaultConfig()
	cfg.TimeScale = 1
	return cfg
}

// clientRand is client c's input stream: the same seed gives every client
// the same sequence of inputs on every run.
func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
}

// --- tasks -------------------------------------------------------------------

// waveSize is deeper than the local scheduler's 64-task spillover threshold,
// so part of every wave is forwarded and the global scheduler stays on the
// path.
const waveSize = 256

// tasksWorkload submits waves of square(x) tasks and checks every x*x.
type tasksWorkload struct {
	seed int64
	// fn is the body of the remote function; tests swap in a faulty one.
	fn     func(x int64) int64
	square ray.Func1[int64, int64]
}

func newTasksInputs(seed int64) func() workload {
	return func() workload {
		return &tasksWorkload{seed: seed, fn: func(x int64) int64 { return x * x }}
	}
}

func (w *tasksWorkload) register(rt *ray.Runtime, clock *bodyClock) error {
	var err error
	w.square, err = ray.Register1(rt, "square", "x*x", func(ctx *ray.Context, x int64) (int64, error) {
		t := clock.start()
		r := w.fn(x)
		clock.end(ctx, t)
		return r, nil
	})
	return err
}

// prepare confirms that every driver gets a checked result back.
func (w *tasksWorkload) prepare(drivers []*ray.Driver) error {
	for i, d := range drivers {
		ref, err := w.square.Remote(d, 3)
		if err != nil {
			return fmt.Errorf("driver %d: %w", i, err)
		}
		if v, err := ray.Get(d, ref); err != nil || v != 9 {
			return fmt.Errorf("driver %d: square(3) = %d, %v", i, v, err)
		}
		ray.Free(d, ref)
	}
	return nil
}

func (w *tasksWorkload) sample() any { return int64(1) << 40 }

func (w *tasksWorkload) run(c *client, d *ray.Driver) {
	rng := clientRand(w.seed, c.id)
	xs := make([]int64, waveSize)
	ops := make([]op, waveSize)
	refs := make([]ray.ObjectRef[int64], waveSize)
	for !c.stopped() {
		for i := range xs {
			xs[i] = rng.Int63n(1 << 31)
			ops[i] = c.begin()
			var err error
			refs[i], err = w.square.Remote(d, xs[i])
			c.submitted(&ops[i], err)
		}
		for i := range xs {
			if ops[i].failed {
				c.finish(&ops[i], refs[i].ID, false, 0)
				continue
			}
			c.getting(&ops[i])
			v, err := ray.Get(d, refs[i])
			c.finish(&ops[i], refs[i].ID, err == nil && v == xs[i]*xs[i], 16)
		}
		// A long-running driver drops its futures once read; without this
		// the driver's reference list and the stores grow for the whole run
		// and the throughput drifts with run length.
		ray.Free(d, refs...)
	}
}

// --- objects -----------------------------------------------------------------

const (
	objectBytes = 8 << 20
	// payloadsPerClient seeded payloads are generated up front and reused
	// in a seeded order, so generating 8 MiB of input is not measured.
	payloadsPerClient = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type payload struct {
	data []byte
	sum  uint32
}

// objectsWorkload puts one 8 MiB payload and has a pinned task on each of
// the other three nodes read it back: one write, three concurrent reads.
type objectsWorkload struct {
	seed     int64
	payloads [][]payload // per client
	consume  ray.Func1[[]byte, uint32]
}

func newObjectsInputs(seed int64) func() workload {
	payloads := make([][]payload, clients)
	for c := range payloads {
		rng := clientRand(seed, 100+c)
		for range payloadsPerClient {
			data := make([]byte, objectBytes)
			rng.Read(data)
			payloads[c] = append(payloads[c], payload{data: data, sum: crc32.Checksum(data, castagnoli)})
		}
	}
	return func() workload { return &objectsWorkload{seed: seed, payloads: payloads} }
}

func (w *objectsWorkload) register(rt *ray.Runtime, clock *bodyClock) error {
	var err error
	w.consume, err = ray.Register1(rt, "consume", "checksum of the input", func(ctx *ray.Context, data []byte) (uint32, error) {
		t := clock.start()
		sum := crc32.Checksum(data, castagnoli)
		clock.end(ctx, t)
		return sum, nil
	})
	return err
}

// prepare confirms that every driver gets a checked result back from a
// reader on another node.
func (w *objectsWorkload) prepare(drivers []*ray.Driver) error {
	probe := []byte("ready")
	want := crc32.Checksum(probe, castagnoli)
	for i, d := range drivers {
		ref, err := w.consume.Remote(d, probe, ray.OnNode((i+1)%nodes))
		if err != nil {
			return fmt.Errorf("driver %d: %w", i, err)
		}
		if v, err := ray.Get(d, ref); err != nil || v != want {
			return fmt.Errorf("driver %d: checksum %d, want %d, %v", i, v, want, err)
		}
		ray.Free(d, ref)
	}
	return nil
}

func (w *objectsWorkload) sample() any { return w.payloads[0][0].data }

func (w *objectsWorkload) run(c *client, d *ray.Driver) {
	rng := clientRand(w.seed, c.id)
	var readers []int
	for n := range nodes {
		if n != c.id {
			readers = append(readers, n)
		}
	}
	ops := make([]op, len(readers))
	refs := make([]ray.ObjectRef[uint32], len(readers))
	for !c.stopped() {
		p := w.payloads[c.id][rng.Intn(payloadsPerClient)]
		put := c.putStart()
		ref, err := ray.Put(d, p.data)
		c.putEnd(put)
		for i, n := range readers {
			ops[i] = c.begin()
			refs[i] = ray.ObjectRef[uint32]{}
			if err != nil {
				c.submitted(&ops[i], err)
				continue
			}
			var serr error
			refs[i], serr = w.consume.RemoteRef(d, ref, ray.OnNode(n))
			c.submitted(&ops[i], serr)
		}
		for i := range readers {
			if ops[i].failed {
				c.finish(&ops[i], refs[i].ID, false, 0)
				continue
			}
			c.getting(&ops[i])
			sum, gerr := ray.Get(d, refs[i])
			c.finish(&ops[i], refs[i].ID, gerr == nil && sum == p.sum, objectBytes+4)
		}
		if err == nil {
			ray.Free(d, ref)
		}
		ray.Free(d, refs...)
	}
}

// --- actors ------------------------------------------------------------------

const (
	paramLen = 8192 // float64s: 64 KiB of weights per actor
	// gradsPerClient seeded gradients are generated up front and pushed in
	// a seeded order.
	gradsPerClient = 16
)

// paramServer is the actor state: the weights and the number of pushes.
type paramServer struct {
	w      []float64
	pushes int64
}

// actorsWorkload runs one parameter server per node; client c owns actors
// 2c and 2c+1. Each round it pushes a seeded gradient to both of its
// actors, in a seeded order, and pulls each one's weights right after its
// push, so four method calls per client are in flight.
//
// Gradients travel by reference (ray.Put, then push.RemoteRef, then
// ray.Free): an inline argument stays in the GCS task table for the whole
// run, which grew the process by about 100 MB/s. With one call in flight
// per client the clients mostly wait on timers and wake-ups, and the tail
// latency followed the load on the host more than the program.
type actorsWorkload struct {
	seed   int64
	grads  [][][]float64 // per client
	class  ray.Class0[paramServer]
	push   ray.ClassMethod1[paramServer, []float64, int64]
	pull   ray.ClassMethod0[paramServer, []float64]
	actors []*ray.ActorOf[paramServer]
}

func newActorsInputs(seed int64) func() workload {
	grads := make([][][]float64, clients)
	for c := range grads {
		rng := clientRand(seed, 200+c)
		for range gradsPerClient {
			g := make([]float64, paramLen)
			for i := range g {
				// Dyadic values keep every running sum exact, so the pulled
				// weights can be compared bit for bit.
				g[i] = float64(rng.Intn(1<<10)-(1<<9)) / 64
			}
			grads[c] = append(grads[c], g)
		}
	}
	return func() workload { return &actorsWorkload{seed: seed, grads: grads} }
}

func (w *actorsWorkload) register(rt *ray.Runtime, clock *bodyClock) error {
	var err error
	w.class, err = ray.RegisterActorClass0(rt, "ParamServer", "holds one weight vector", func(*ray.Context) (*paramServer, error) {
		return &paramServer{w: make([]float64, paramLen)}, nil
	})
	if err != nil {
		return err
	}
	w.push, err = ray.ActorMethod1(w.class, "push", func(ctx *ray.Context, s *paramServer, g []float64) (int64, error) {
		t := clock.start()
		if len(g) != len(s.w) {
			return 0, fmt.Errorf("push: gradient has %d values, weights %d", len(g), len(s.w))
		}
		for i, v := range g {
			s.w[i] += v
		}
		s.pushes++
		clock.end(ctx, t)
		return s.pushes, nil
	})
	if err != nil {
		return err
	}
	// pull returns the live weights: methods of one actor run one at a
	// time, and the result is encoded before the next method starts.
	w.pull, err = ray.ActorMethod0(w.class, "pull", func(ctx *ray.Context, s *paramServer) ([]float64, error) {
		t := clock.start()
		clock.end(ctx, t)
		return s.w, nil
	})
	return err
}

// prepare constructs one actor per node, owned by the client that uses it,
// and waits until each answers a pull.
func (w *actorsWorkload) prepare(drivers []*ray.Driver) error {
	w.actors = make([]*ray.ActorOf[paramServer], nodes)
	for i := range w.actors {
		a, err := w.class.New(drivers[i/2], ray.OnNode(i))
		if err != nil {
			return fmt.Errorf("create actor %d: %w", i, err)
		}
		w.actors[i] = a
	}
	for i, a := range w.actors {
		d := drivers[i/2]
		ref, err := w.pull.Remote(d, a)
		if err != nil {
			return fmt.Errorf("actor %d: %w", i, err)
		}
		v, err := ray.Get(d, ref)
		if err != nil || len(v) != paramLen {
			return fmt.Errorf("actor %d not ready: %d weights, %v", i, len(v), err)
		}
		ray.Free(d, ref)
	}
	return nil
}

func (w *actorsWorkload) sample() any { return w.grads[0][0] }

func (w *actorsWorkload) run(c *client, d *ray.Driver) {
	rng := clientRand(w.seed, c.id)
	mine := w.actors[2*c.id : 2*c.id+2]
	want := [2][]float64{make([]float64, paramLen), make([]float64, paramLen)}
	var pushes [2]int64
	var (
		ops    [4]op
		counts [2]ray.ObjectRef[int64]
		pulled [2]ray.ObjectRef[[]float64]
		grads  [2]ray.ObjectRef[[]float64]
		order  [2]int
	)
	for !c.stopped() {
		first := rng.Intn(2)
		order = [2]int{first, 1 - first}
		for k, a := range order {
			g := w.grads[c.id][rng.Intn(gradsPerClient)]
			for i, v := range g {
				want[a][i] += v
			}
			pushes[a]++
			counts[k], pulled[k], grads[k] = ray.ObjectRef[int64]{}, ray.ObjectRef[[]float64]{}, ray.ObjectRef[[]float64]{}

			put := c.putStart()
			gref, err := ray.Put(d, g)
			c.putEnd(put)
			ops[2*k] = c.begin()
			if err == nil {
				grads[k] = gref
				counts[k], err = w.push.RemoteRef(d, mine[a], gref)
			}
			c.submitted(&ops[2*k], err)

			ops[2*k+1] = c.begin()
			pulled[k], err = w.pull.Remote(d, mine[a])
			c.submitted(&ops[2*k+1], err)
		}
		for k, a := range order {
			o := &ops[2*k]
			if !o.failed {
				c.getting(o)
				n, err := ray.Get(d, counts[k])
				o.failed = err != nil || n != pushes[a]
			}
			c.finish(o, counts[k].ID, !o.failed, 8*paramLen+8)

			o = &ops[2*k+1]
			if !o.failed {
				c.getting(o)
				got, err := ray.Get(d, pulled[k])
				o.failed = err != nil || !equalFloats(got, want[a])
			}
			c.finish(o, pulled[k].ID, !o.failed, 8*paramLen)
		}
		ray.Free(d, counts[:]...)
		ray.Free(d, pulled[:]...)
		ray.Free(d, grads[:]...)
	}
}

func equalFloats(a, b []float64) bool {
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
