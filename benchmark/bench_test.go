package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func shortRun(name string, trace bool, out string) options {
	return options{
		workload: name, seed: 7, seconds: 2, trace: trace,
		out: out, setups: 2, warmup: 200 * time.Millisecond,
	}
}

// TestMetricListsMatchBenchmarkFile keeps the program's metric names and
// units identical to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(declared), len(defs))
		}
		for i := range min(len(declared), len(defs)) {
			if declared[i].Name != defs[i].name || declared[i].Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i,
					declared[i].Name, declared[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("workload %d: program %s, BENCHMARK.json %v", i, w.name, names)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced: every metric
// BENCHMARK.json names is emitted, no op fails, and every traced op's
// child spans fit inside its op span with no negative self time.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runBenchmark(context.Background(), shortRun(w.Name, false, ""))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			for _, m := range f.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v, present=%v", m.Name, got, ok)
				}
			}

			out := t.TempDir()
			res, err = runBenchmark(context.Background(), shortRun(w.Name, true, out))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			for _, m := range f.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v, present=%v", m.Name, got, ok)
				}
			}
			if v := res.Metrics["failed_frac"].Value; v != 0 {
				t.Errorf("failed_frac = %v", v)
			}
			checkSpanFile(t, filepath.Join(out, "spans-"+w.Name+"-seed7.jsonl"))
		})
	}
}

// checkSpanFile reads the span file back: every trace has one root, every
// child lies inside it, and no self time is negative.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	roots := map[string]span{}
	var children []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Self < 0 || s.Dur < 0 {
			t.Errorf("%s %s: duration %v, self %v", s.Trace, s.Name, s.Dur, s.Self)
		}
		if s.Parent == "" {
			roots[s.Trace] = s
		} else {
			children = append(children, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	ops := 0
	for _, r := range roots {
		if r.Name == "op" {
			ops++
		}
	}
	if ops == 0 {
		t.Fatal("span file holds no op spans")
	}
	// Times are printed in µs with ns digits, so compare to the ns.
	const eps = 1e-3
	for _, c := range children {
		r, ok := roots[c.Trace]
		if !ok || r.Name != c.Parent {
			t.Errorf("%s %s: parent %q not found", c.Trace, c.Name, c.Parent)
			continue
		}
		if c.Start < r.Start-eps || c.Start+c.Dur > r.Start+r.Dur+eps {
			t.Errorf("%s %s [%v, +%v] outside op [%v, +%v]", c.Trace, c.Name, c.Start, c.Dur, r.Start, r.Dur)
		}
	}
}

// TestWrongResultCountsAsFailed injects a wrong square for some inputs:
// those ops count as failed, never as latency samples, and the run is not
// correct.
func TestWrongResultCountsAsFailed(t *testing.T) {
	o := shortRun("tasks", false, "")
	o.mutate = func(w workload) {
		w.(*tasksWorkload).fn = func(x int64) int64 {
			if x%5 == 0 {
				return x*x + 1
			}
			return x * x
		}
	}
	res, err := runBenchmark(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("run with wrong results reported correct")
	}
	if res.Failed == 0 || res.Failed >= res.Attempted {
		t.Fatalf("attempted=%d failed=%d, want some but not all failed", res.Attempted, res.Failed)
	}
	// About one input in five is wrong.
	if frac := float64(res.Failed) / float64(res.Attempted); frac < 0.15 || frac > 0.25 {
		t.Errorf("failed fraction %.3f, want about 0.2", frac)
	}
	if got, want := res.Samples["latency_p50_ms"], int(res.Attempted-res.Failed); got != want {
		t.Errorf("latency samples = %d, want the %d successful ops", got, want)
	}
}

// TestTailQuantile keeps a tail figure from resting on fewer than ten
// samples.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 0.99}, {1000, 0.99}, {500, 0.98}, {5, 0.5}} {
		if got := tailQuantile(c.n, 0.99); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestBlockFigures: each block's rate counts its successful ops over its
// own wall time, and a block's failed ops count as failed, not in the rates.
func TestBlockFigures(t *testing.T) {
	sched := &schedule{traced: make([]bool, 3)}
	c := &client{sched: sched, tallies: []tally{
		{ops: 10, bytes: 100, latencies: make([]int64, 10)},
		{ops: 50, failed: 2, bytes: 500, latencies: make([]int64, 48)},
		{ops: 30, bytes: 300, latencies: make([]int64, 30)},
	}}
	snaps := make([]snapshot, 4)
	for i := range snaps {
		snaps[i] = snapshot{at: int64(i) * 1e9}
	}
	m := &measured{sched: sched, clients: []*client{c}, snaps: snaps, blocks: 3, gauges: gauges{rssPeak: make([]float64, 3)}}
	w := collect(m, false)
	if w.ops != 90 || w.failed != 2 || w.bytes != 900 || w.seconds != 3 {
		t.Errorf("window ops=%d failed=%d bytes=%d seconds=%v, want 90, 2, 900, 3", w.ops, w.failed, w.bytes, w.seconds)
	}
	if b := perBlock(m, false); !slices.Equal(b.opsPerS, []float64{10, 48, 30}) || median(b.opsPerS) != 30 {
		t.Errorf("block rates %v, want [10 48 30] with median 30", b.opsPerS)
	}
	if att, failed := outcomes(m, w); att != 90 || failed != 2 {
		t.Errorf("attempted=%d failed=%d, want 90 and 2", att, failed)
	}
}
