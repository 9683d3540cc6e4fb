package main

import (
	"fmt"
	"slices"
	"time"
)

// metricDef is one metric as BENCHMARK.json names it.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"mb_per_s", "MB/s"},
	{"cpu_us_per_op", "us"},
	{"alloc_bytes_per_op", "bytes"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, measured in the traced
// schedule from outside each layer.
var perLayer = []metricDef{
	{"ray.submit_us.p50", "us"},
	{"ray.submit_us.p99", "us"},
	{"ray.get_us.p50", "us"},
	{"ray.put_us.p50", "us"},
	{"sched.queue_us.p50", "us"},
	{"sched.queue_us.p99", "us"},
	{"task.exec_us.p50", "us"},
	{"task.finish_us.p50", "us"},
	{"task.finish_us.p99", "us"},
	{"trace.overhead_frac", "frac"},
	{"failed_frac", "frac"},
	{"gcs.gets_per_op", "count"},
	{"gcs.puts_per_op", "count"},
	{"gcs.batch_commits_per_op", "count"},
	{"gcs.coalesced_frac", "frac"},
	{"gcs.flushed_bytes_per_op", "bytes"},
	{"gcs.resident_bytes_per_op", "bytes"},
	{"gcs.flush_errors", "count"},
	{"gcs.add_location_ns", "ns"},
	{"gcs.get_object_ns", "ns"},
	{"gcs.add_task_ns", "ns"},
	{"gcs.add_location_allocs", "count"},
	{"scheduler.forwarded_frac", "frac"},
	{"scheduler.global_decisions_per_op", "count"},
	{"scheduler.queue_len.max", "count"},
	{"scheduler.failed", "count"},
	{"cluster.actor_routes_per_op", "count"},
	{"cluster.forwards_per_op", "count"},
	{"worker.runs_per_op", "count"},
	{"worker.app_errors", "count"},
	{"lineage.reconstructed_tasks", "count"},
	{"codec.encode_ns", "ns"},
	{"codec.decode_ns", "ns"},
	{"codec.encode_allocs", "count"},
	{"codec.decode_allocs", "count"},
	{"codec.encoded_bytes", "bytes"},
	{"objectstore.puts_per_op", "count"},
	{"objectstore.hit_frac", "frac"},
	{"objectstore.evictions_per_op", "count"},
	{"objectstore.spills", "count"},
	{"objectstore.peak_used_mb", "MB"},
	{"objectstore.put_ns", "ns"},
	{"objectstore.get_ns", "ns"},
	{"objectmanager.pulls_per_op", "count"},
	{"objectmanager.pulled_mb_per_op", "MB"},
	{"objectmanager.transfer_ms_per_pull", "ms"},
	{"objectmanager.chunks_per_pull", "count"},
	{"objectmanager.resumed_pulls", "count"},
	{"telemetry.spans_dropped", "count"},
}

// window sums the tallies and snapshot deltas of a set of schedule.
type window struct {
	seconds     float64
	ops, failed int64
	bytes       int64
	spans       []opSpans
	unmatched   int64
	puts        []putSpan
	cpu         time.Duration
	alloc       uint64
	mallocs     uint64
	counters    map[string]float64
}

// collect merges the schedule whose traced flag equals traced. Their
// length is the wall time between the snapshots, not the planned sleep.
func collect(m *measured, traced bool) window {
	w := window{counters: map[string]float64{}}
	for s := range m.blocks {
		if m.sched.traced[s] != traced {
			continue
		}
		before, after := m.snaps[s], m.snaps[s+1]
		w.seconds += float64(after.at-before.at) / 1e9
		w.cpu += after.cpu - before.cpu
		w.alloc += after.alloc - before.alloc
		w.mallocs += after.mallocs - before.mallocs
		for k, v := range after.counters {
			w.counters[k] += v - before.counters[k]
		}
		for _, c := range m.clients {
			t := &c.tallies[s]
			w.ops += t.ops
			w.failed += t.failed
			w.bytes += t.bytes
			w.spans = append(w.spans, t.spans...)
			w.unmatched += t.unmatched
			w.puts = append(w.puts, t.puts...)
		}
	}
	return w
}

func (w window) succeeded() int64 { return w.ops - w.failed }

// per divides by the successful op count, 0 when there were none.
func (w window) per(v float64) float64 {
	if w.succeeded() == 0 {
		return 0
	}
	return v / float64(w.succeeded())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report is a run's derived output.
type report struct {
	metrics map[string]float64
	samples map[string]int
	notes   []string
}

func (r *report) set(name string, v float64, samples int) {
	r.metrics[name] = v
	r.samples[name] = samples
}

// endToEndReport derives the end-to-end metrics from the untraced window.
func endToEndReport(m *measured, w window) *report {
	r := &report{metrics: map[string]float64{}, samples: map[string]int{}}
	ok := int(w.succeeded())
	r.set("setup_s", median(slices.Clone(m.setups)), len(m.setups))
	b := perBlock(m, false)
	r.set("ops_per_s", median(b.opsPerS), ok)
	r.set("latency_p50_ms", median(b.p50)/1e6, ok)
	r.set("latency_p90_ms", median(b.p90)/1e6, ok)
	r.set("mb_per_s", median(b.mbPerS), ok)
	r.notes = append(r.notes, fmt.Sprintf("rates, p50 and p90 are medians over %d blocks of %.0f s", len(b.opsPerS), blockSeconds))
	// The p99 is reported but not bounded: on a CPU-saturated workload it
	// follows the hypervisor's steal more than the program.
	p99 := median(b.tail) / 1e6
	r.set("latency_p99_ms", p99, ok)
	r.notes = append(r.notes, fmt.Sprintf("latency_p99_ms %.4f ms: the median over %d groups of blocks of each group's %s (not in BENCHMARK.json)",
		p99, len(b.tail), b.tailName))
	r.set("cpu_us_per_op", w.per(float64(w.cpu.Microseconds())), ok)
	r.set("alloc_bytes_per_op", w.per(float64(w.alloc)), ok)
	r.set("allocs_per_op", w.per(float64(w.mallocs)), ok)
	// The GCS keeps every task spec for lineage, so the process grows with
	// the ops done and a later block's peak follows the throughput. The
	// first block's peak is the working set; gcs.resident_bytes_per_op
	// reports the growth.
	r.set("peak_rss_mb", b.rssPeak[0]/1e6, 1)
	return r
}

// blockFigures are the rate and latency figures of each measured block.
// The p99 needs more samples than a block may hold, so it is taken per
// group of consecutive blocks holding at least tailSamples.
type blockFigures struct {
	opsPerS, p50, p90 []float64 // per block; latencies in ns
	mbPerS            []float64 // per block
	rssPeak           []float64 // per block in run order, bytes
	tail              []float64 // per group, ns
	tailName          string
}

// tailSamples is the smallest group whose p99 has 10 samples beyond it.
const tailSamples = 1000

// perBlock computes the figures of every block whose traced flag equals
// traced.
func perBlock(m *measured, traced bool) blockFigures {
	var b blockFigures
	var groups [][]int64
	var group []int64
	for s := range m.blocks {
		if m.sched.traced[s] != traced {
			continue
		}
		secs := float64(m.snaps[s+1].at-m.snaps[s].at) / 1e9
		var lat []int64
		var ok, bytes int64
		for _, c := range m.clients {
			t := &c.tallies[s]
			ok += t.ops - t.failed
			bytes += t.bytes
			lat = append(lat, t.latencies...)
		}
		slices.Sort(lat)
		b.opsPerS = append(b.opsPerS, float64(ok)/secs)
		b.mbPerS = append(b.mbPerS, float64(bytes)/secs/1e6)
		b.p50 = append(b.p50, quantile(lat, 0.5))
		b.p90 = append(b.p90, quantile(lat, tailQuantile(len(lat), 0.9)))
		b.rssPeak = append(b.rssPeak, m.gauges.rssPeak[s])
		group = append(group, lat...)
		if len(group) >= tailSamples {
			groups = append(groups, group)
			group = nil
		}
	}
	// A short remainder joins the last group rather than standing alone.
	if len(groups) == 0 {
		groups = append(groups, group)
	} else if len(group) > 0 {
		groups[len(groups)-1] = append(groups[len(groups)-1], group...)
	}
	minQ := 1.0
	for _, g := range groups {
		slices.Sort(g)
		q := tailQuantile(len(g), 0.99)
		minQ = min(minQ, q)
		b.tail = append(b.tail, quantile(g, q))
	}
	b.tailName = "p99"
	if minQ != 0.99 {
		b.tailName = fmt.Sprintf("p%.2f (too few samples for p99)", 100*minQ)
	}
	return b
}

// outcomes counts the ops of the windows, and the failures outside every
// block.
func outcomes(m *measured, ws ...window) (attempted, failed int64) {
	out := m.sched.outside.Load()
	attempted, failed = out, out
	for _, w := range ws {
		attempted += w.ops
		failed += w.failed
	}
	return attempted, failed
}

// layerReport derives the per-layer metrics from the traced window; the
// untraced window of the same run gives the tracing overhead.
func layerReport(m *measured, traced, untraced window, timed map[string]float64) *report {
	r := &report{metrics: map[string]float64{}, samples: map[string]int{}}
	ops := int(traced.succeeded())
	c := traced.counters

	ph := phases(traced.spans)
	for _, p := range []struct {
		name string
		d    []int64
		qs   []float64
	}{
		{"ray.submit_us", ph["ray.submit"], []float64{0.5, 0.99}},
		{"ray.get_us", ph["ray.get"], []float64{0.5}},
		{"ray.put_us", putDurations(traced.puts), []float64{0.5}},
		{"sched.queue_us", ph["sched.queue"], []float64{0.5, 0.99}},
		{"task.exec_us", ph["task.exec"], []float64{0.5}},
		{"task.finish_us", ph["task.finish"], []float64{0.5, 0.99}},
	} {
		slices.Sort(p.d)
		for _, q := range p.qs {
			name := fmt.Sprintf("%s.p%d", p.name, int(q*100))
			eff := q
			if q > 0.5 {
				eff = tailQuantile(len(p.d), q)
				if eff != q {
					r.notes = append(r.notes, fmt.Sprintf("%s reports p%.2f: only %d samples", name, 100*eff, len(p.d)))
				}
			}
			r.set(name, quantile(p.d, eff)/1e3, len(p.d))
		}
	}
	if traced.unmatched > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%d traced ops had no body times (tracing switched on mid-op)", traced.unmatched))
	}

	untracedRate := float64(untraced.succeeded()) / untraced.seconds
	tracedRate := float64(traced.succeeded()) / traced.seconds
	r.set("trace.overhead_frac", 1-ratio(tracedRate, untracedRate), ops+int(untraced.succeeded()))
	att, failed := outcomes(m, traced, untraced)
	r.set("failed_frac", ratio(float64(failed), float64(att)), int(att))

	perOp := func(name, counter string) { r.set(name, traced.per(c[counter]), ops) }
	total := func(name, counter string) { r.set(name, c[counter], ops) }
	perOp("gcs.gets_per_op", "gcs.gets")
	perOp("gcs.puts_per_op", "gcs.puts")
	perOp("gcs.batch_commits_per_op", "gcs.batch_commits")
	r.set("gcs.coalesced_frac", ratio(c["gcs.coalesced"], c["gcs.batched_writes"]), int(c["gcs.batched_writes"]))
	perOp("gcs.flushed_bytes_per_op", "gcs.flushed_bytes")
	perOp("gcs.resident_bytes_per_op", "gcs.resident_bytes")
	total("gcs.flush_errors", "gcs.flush_errors")
	perOp("scheduler.forwarded_frac", "scheduler.forwarded")
	perOp("scheduler.global_decisions_per_op", "cluster.global_decisions")
	r.set("scheduler.queue_len.max", m.gauges.maxQueueLen, m.gauges.n)
	total("scheduler.failed", "scheduler.failed")
	perOp("cluster.actor_routes_per_op", "cluster.actor_routes")
	perOp("cluster.forwards_per_op", "cluster.forwards")
	perOp("worker.runs_per_op", "worker.runs")
	total("worker.app_errors", "worker.app_errors")
	total("lineage.reconstructed_tasks", "lineage.reconstructed_tasks")
	perOp("objectstore.puts_per_op", "objectstore.puts")
	r.set("objectstore.hit_frac", ratio(c["objectstore.hits"], c["objectstore.gets"]), int(c["objectstore.gets"]))
	perOp("objectstore.evictions_per_op", "objectstore.evictions")
	total("objectstore.spills", "objectstore.spills")
	r.set("objectstore.peak_used_mb", m.gauges.peakUsed/1e6, m.gauges.n)
	pulls := int(c["objectmanager.pulls"])
	perOp("objectmanager.pulls_per_op", "objectmanager.pulls")
	r.set("objectmanager.pulled_mb_per_op", traced.per(c["objectmanager.bytes_pulled"])/1e6, ops)
	r.set("objectmanager.transfer_ms_per_pull", ratio(c["objectmanager.transfer_ns"], c["objectmanager.pulls"])/1e6, pulls)
	r.set("objectmanager.chunks_per_pull", ratio(c["objectmanager.chunks"], c["objectmanager.chunked_pulls"]), int(c["objectmanager.chunked_pulls"]))
	total("objectmanager.resumed_pulls", "objectmanager.resumed_pulls")
	r.set("telemetry.spans_dropped", float64(m.dropped), 1)
	for k, v := range timed {
		r.set(k, v, 5)
	}
	return r
}

func putDurations(puts []putSpan) []int64 {
	out := make([]int64, len(puts))
	for i, p := range puts {
		out[i] = p.end - p.start
	}
	return out
}
