// Command benchmark is the repository's benchmark. It sets up an in-process
// Ray cluster (ray.DefaultConfig plus node labels), drives it from two
// closed-loop clients through the public ray API only, checks every result
// and prints every metric by name with its unit. README.md describes the
// workloads, the metrics and the span file.
//
// From the repository root:
//
//	bash benchmark/run.sh --workload tasks --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or with
// --trace 1 the per-layer metrics. A run that is not correct still prints
// it, then exits with status 3.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"ray/ray"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: tasks, objects or actors")
	seed := fs.Int64("seed", 1, "seed that generates every input")
	seconds := fs.Float64("seconds", 10, "measured seconds (a traced run splits them between untraced and traced blocks)")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics and writes the span file")
	out := fs.String("out", filepath.Join(".bench_build", "benchmark"), "directory for the run record and span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		out: *out, setups: setups, warmup: warmupFor(*seconds),
	}
	res, err := runBenchmark(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "benchmark: the run was not correct; see the notes")
		return 3
	}
	return 0
}

// setups is how many times a run sets the cluster up: enough for a steady
// median of a few milliseconds each.
const setups = 21

// warmupFor lets the heap, the GCS tables and the worker slots reach their
// steady size before anything is measured.
func warmupFor(seconds float64) time.Duration {
	return time.Duration(min(2, max(0.2, seconds/10)) * float64(time.Second))
}

// environment is recorded with every run, so a number carries its machine.
type environment struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Warmup     float64 `json:"warmup_s"`
	Setups     int     `json:"setups"`
	Clients    int     `json:"clients"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	// HostSteal is the share of the machine's CPU time the hypervisor
	// gave to other guests while the blocks ran: high values mean the
	// wall-clock figures of this run were squeezed by neighbours.
	HostSteal float64 `json:"host_steal_frac"`
}

func currentEnvironment(o options) environment {
	return environment{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Warmup: o.warmup.Seconds(), Setups: o.setups, Clients: clients,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Commit: commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+modified"
			}
		}
	}
	return rev + modified
}

// result is one run's output.
type result struct {
	Env       environment           `json:"env"`
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
	// Samples is how many values each metric rests on.
	Samples map[string]int `json:"samples"`
	Notes   []string       `json:"notes,omitempty"`
	// reported names the metrics of the final line, in order.
	reported []metricDef
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runBenchmark(ctx context.Context, o options) (*result, error) {
	var spec workloadSpec
	for _, w := range workloads {
		if w.name == o.workload {
			spec = w
		}
	}
	if spec.name == "" {
		return nil, fmt.Errorf("unknown workload %q (want tasks, objects or actors)", o.workload)
	}
	m, err := execute(ctx, o, spec)
	if err != nil {
		return nil, err
	}
	res := &result{Env: currentEnvironment(o), Metrics: map[string]metricJSON{}}
	first, last := m.snaps[0], m.snaps[len(m.snaps)-1]
	res.Env.HostSteal = ratio(float64(last.steal-first.steal), float64(last.total-first.total))
	var rep *report
	var badSpans int
	if !o.trace {
		w := collect(m, false)
		rep = endToEndReport(m, w)
		res.Attempted, res.Failed = outcomes(m, w)
		res.reported = endToEnd
		att, failed := res.Attempted, res.Failed
		rep.notes = append(rep.notes, fmt.Sprintf("failed_frac %g (%d of %d ops)", ratio(float64(failed), float64(att)), failed, att))
	} else {
		traced, untraced := collect(m, true), collect(m, false)
		timed, err := timeLayers(ctx, m.sample)
		if err != nil {
			return nil, err
		}
		rep = layerReport(m, traced, untraced, timed)
		res.Attempted, res.Failed = outcomes(m, traced, untraced)
		res.reported = perLayer
		badSpans = checkSpans(traced.spans)
		if badSpans > 0 {
			rep.notes = append(rep.notes, fmt.Sprintf("%d ops have spans outside their op span or a negative self time", badSpans))
		}
		if len(traced.spans) == 0 {
			badSpans++
			rep.notes = append(rep.notes, "no traced op recorded its spans")
		}
		if o.out != "" {
			if err := os.MkdirAll(o.out, 0o755); err != nil {
				return nil, err
			}
			path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
			if err := writeSpans(path, traced.spans, traced.puts); err != nil {
				return nil, fmt.Errorf("write span file: %w", err)
			}
			rep.notes = append(rep.notes, "span file "+path)
		}
	}
	for _, def := range res.reported {
		if _, ok := rep.metrics[def.name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", def.name)
		}
	}
	for name, v := range rep.metrics {
		res.Metrics[name] = metricJSON{Value: v, Unit: unitOf(name)}
	}
	res.Samples, res.Notes = rep.samples, rep.notes
	if m.timeouts > 0 {
		res.Notes = append(res.Notes, "clients were stuck at the end of the run and their jobs were finished")
	}
	res.Correct = res.Failed == 0 && badSpans == 0 && m.timeouts == 0
	if o.out != "" {
		if err := res.writeRecord(o); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timeLayers times direct calls into the codec, gcs and objectstore
// packages on the workload's own payload v.
func timeLayers(ctx context.Context, v any) (map[string]float64, error) {
	out := map[string]float64{}
	if err := timeCodec(v, out); err != nil {
		return nil, err
	}
	if err := timeGCS(ctx, ray.DefaultConfig(), out); err != nil {
		return nil, err
	}
	if err := timeObjectStore(v, out); err != nil {
		return nil, err
	}
	return out, nil
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// writeRecord saves the full result, environment and sample counts next to
// the span file.
func (r *result) writeRecord(o options) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if o.trace {
		t = 1
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, t))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes the human-readable table, the environment, and last the
// one-line JSON result.
func (r *result) print(w io.Writer) error {
	env, err := json.Marshal(r.Env)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "env %s\n", env)
	fmt.Fprintf(&b, "%-36s %16s  %-6s %10s\n", "metric", "value", "unit", "samples")
	for _, def := range r.reported {
		fmt.Fprintf(&b, "%-36s %16.6g  %-6s %10d\n", def.name, r.Metrics[def.name].Value, def.unit, r.Samples[def.name])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	final := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metricJSON{}}
	for _, def := range r.reported {
		final.Metrics[def.name] = r.Metrics[def.name]
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}
