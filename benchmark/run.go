package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ray/ray"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	// seconds is the measured time; a traced run splits it between
	// untraced and traced schedule.
	seconds float64
	trace   bool
	// out is the directory for the run record and span file ("" = none).
	out string
	// setups is how many times the cluster is set up; setup_s is their
	// median and the last one is measured.
	setups int
	warmup time.Duration
	// mutate, when set, alters the workload after set-up (tests use it to
	// inject faults).
	mutate func(workload)
}

// deployment is one set-up cluster: the runtime, one driver per client and
// the workload registered on it.
type deployment struct {
	rt      *ray.Runtime
	drivers []*ray.Driver
	wl      workload
}

func setUp(ctx context.Context, spec workloadSpec, newWL func() workload, bodies *bodyClock) (*deployment, error) {
	cfg := ray.DefaultConfig()
	cfg.LabelNodes = true
	cfg.Network = spec.network()
	rt, err := ray.Init(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("init: %w", err)
	}
	dep := &deployment{rt: rt, wl: newWL()}
	if err := dep.wl.register(rt, bodies); err != nil {
		dep.tearDown(ctx)
		return nil, fmt.Errorf("register: %w", err)
	}
	nodeList := rt.Cluster().NodeList()
	for c := range clients {
		d, err := rt.NewDriverOn(ctx, nodeList[c])
		if err != nil {
			dep.tearDown(ctx)
			return nil, fmt.Errorf("attach driver %d: %w", c, err)
		}
		dep.drivers = append(dep.drivers, d)
	}
	if err := dep.wl.prepare(dep.drivers); err != nil {
		dep.tearDown(ctx)
		return nil, fmt.Errorf("prepare: %w", err)
	}
	return dep, nil
}

func (d *deployment) tearDown(ctx context.Context) {
	for _, drv := range d.drivers {
		// Finish only fails when the job is already gone; there is nothing
		// left to release then.
		_, _ = ray.Shutdown(ctx, drv)
	}
	d.rt.Shutdown()
}

// snapshot is everything read at a block boundary.
type snapshot struct {
	at       int64 // ns since epoch
	cpu      time.Duration
	alloc    uint64
	mallocs  uint64
	counters map[string]float64
	// steal and total are the host's CPU ticks from /proc/stat.
	steal, total uint64
}

func takeSnapshot(rt *ray.Runtime, c clock, layers bool) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{at: c.now(), cpu: processCPU(), alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
	s.steal, s.total = hostTicks()
	if layers {
		s.counters = readCounters(rt)
	}
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the CPU time the hypervisor gave to other guests
// (steal) and the total, both summed over CPUs, in clock ticks. Zero when
// /proc/stat is unreadable.
func hostTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// blockSeconds is the length of one measured block. Rates and latency
// percentiles are computed per block and reported as the median over
// blocks, so a few seconds of interference from outside the process do
// not move the figure.
const blockSeconds = 1.0

// plan splits the measured time into blocks. A traced run spends its first
// and last quarter untraced and the middle half traced, so a drift over
// the run biases both sides of the tracing overhead equally.
func plan(o options) (block time.Duration, traced []bool) {
	n := max(1, int(o.seconds/blockSeconds+0.5))
	if o.trace {
		n = max(4, (n+3)/4*4)
		for i := range n {
			traced = append(traced, i >= n/4 && i < n-n/4)
		}
	} else {
		traced = make([]bool, n)
	}
	return time.Duration(o.seconds / float64(n) * float64(time.Second)), traced
}

// measured is the raw outcome of a run, before metrics are derived.
type measured struct {
	setups  []float64
	sched   *schedule
	clients []*client
	snaps   []snapshot
	// blocks is how many blocks ran.
	blocks int
	gauges gauges
	// sample is a value of the workload's payload type.
	sample   any
	dropped  int64
	timeouts int
}

// execute sets the cluster up, drives it through warm-up and every
// block, and tears it down.
func execute(ctx context.Context, o options, spec workloadSpec) (*measured, error) {
	newWL := spec.inputs(o.seed)
	c := clock{epoch: time.Now()}
	bodies := newBodyClock(c)
	m := &measured{}
	var dep *deployment
	for range o.setups {
		if dep != nil {
			dep.tearDown(ctx)
		}
		// Collect the previous cluster's garbage first, so no set-up pays
		// for another's.
		runtime.GC()
		start := time.Now()
		var err error
		dep, err = setUp(ctx, spec, newWL, bodies)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
	}
	if o.mutate != nil {
		o.mutate(dep.wl)
	}

	block, traced := plan(o)
	m.sched = &schedule{traced: traced, stop: make(chan struct{}), bodies: bodies}
	m.sched.cur.Store(-1)
	var wg sync.WaitGroup
	for i, d := range dep.drivers {
		cl := newClient(i, m.sched)
		m.clients = append(m.clients, cl)
		wg.Add(1)
		go func() {
			defer wg.Done()
			dep.wl.run(cl, d)
		}()
	}
	gs := startSampler(dep.rt, m.sched, o.trace)

	time.Sleep(o.warmup)
	m.snaps = append(m.snaps, takeSnapshot(dep.rt, c, o.trace))
	for i := range traced {
		bodies.on.Store(traced[i])
		m.sched.cur.Store(int32(i))
		time.Sleep(block)
		m.snaps = append(m.snaps, takeSnapshot(dep.rt, c, o.trace))
		m.blocks++
	}
	m.sched.cur.Store(int32(len(traced)))
	bodies.on.Store(false)
	close(m.sched.stop)
	m.gauges = gs.stop()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * opTimeout):
		// A client is stuck in a call: finishing its job cancels the call,
		// and the op counts as failed.
		m.timeouts++
		for _, d := range dep.drivers {
			_, _ = ray.Shutdown(ctx, d)
		}
		select {
		case <-done:
		case <-time.After(opTimeout):
			return nil, fmt.Errorf("clients did not stop after their jobs were finished")
		}
	}
	m.sample = dep.wl.sample()
	if tr := dep.rt.Cluster().Tracer(); tr != nil {
		m.dropped = tr.Dropped()
	}
	dep.tearDown(ctx)
	return m, nil
}

// median of a non-empty slice (the slice is sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile of sorted ns samples, interpolating between order statistics.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// tailQuantile is the highest quantile up to want that leaves at least 10
// samples beyond it, so a tail figure never rests on a handful of ops.
func tailQuantile(n int, want float64) float64 {
	if n <= 10 {
		return 0.5
	}
	if float64(n)*(1-want) >= 10-1e-9 {
		return want
	}
	return 1 - 10/float64(n)
}
