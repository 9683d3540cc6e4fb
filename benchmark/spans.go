package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one interval of a traced op. Every span of an op shares the op's
// trace ID; the root span is "op" and every other span is its child.
type span struct {
	Trace  string  `json:"trace"`
	Name   string  `json:"span"`
	Parent string  `json:"parent"`
	Start  float64 `json:"start_us"` // since the run's epoch
	Dur    float64 `json:"dur_us"`
	Self   float64 `json:"self_us"`
}

type interval struct {
	name       string
	start, end int64
}

// children lays out an op's timeline. The remote body may start before
// the Remote call returns; the queue span is then empty.
func (s opSpans) children() []interval {
	return []interval{
		{"ray.submit", s.start, s.submitted},
		{"sched.queue", s.submitted, max(s.bodyStart, s.submitted)},
		{"task.exec", s.bodyStart, s.bodyEnd},
		{"task.finish", s.bodyEnd, s.end},
		{"ray.get", s.getting, s.end},
	}
}

// covered is the length of the union of the intervals.
func covered(iv []interval) int64 {
	sorted := append([]interval(nil), iv...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	total, curStart, curEnd := int64(0), int64(-1), int64(-1)
	for _, x := range sorted {
		if x.start > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = x.start, x.end
			continue
		}
		curEnd = max(curEnd, x.end)
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

// spanTree returns the op's root and child spans with their self times.
func (s opSpans) spanTree() []span {
	kids := s.children()
	trace := fmt.Sprintf("op-%d", s.id)
	dur := s.end - s.start
	out := []span{{Trace: trace, Name: "op", Start: us(s.start), Dur: us(dur), Self: us(dur - covered(kids))}}
	for _, k := range kids {
		out = append(out, span{Trace: trace, Name: k.name, Parent: "op", Start: us(k.start), Dur: us(k.end - k.start), Self: us(k.end - k.start)})
	}
	return out
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// checkSpans reports ops whose child spans leave the op span or whose self
// times are negative; either means the timeline is wrong.
func checkSpans(ops []opSpans) (bad int) {
	for _, s := range ops {
		kids := s.children()
		for _, k := range kids {
			if k.start < s.start || k.end > s.end || k.end < k.start {
				bad++
				break
			}
		}
		if s.end-s.start < covered(kids) {
			bad++
		}
	}
	return bad
}

// phases collects every op's child span lengths, by span name.
func phases(ops []opSpans) map[string][]int64 {
	out := map[string][]int64{}
	for _, s := range ops {
		for _, k := range s.children() {
			out[k.name] = append(out[k.name], k.end-k.start)
		}
	}
	return out
}

// maxSpanOps bounds the span file: every k-th traced op is written.
const maxSpanOps = 5000

// writeSpans writes one JSON span per line: a sample of the traced ops'
// span trees, then the traced ray.Put calls.
func writeSpans(path string, ops []opSpans, puts []putSpan) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	step := max(1, (len(ops)+maxSpanOps-1)/maxSpanOps)
	for i := 0; i < len(ops); i += step {
		for _, sp := range ops[i].spanTree() {
			if err := enc.Encode(sp); err != nil {
				return err
			}
		}
	}
	step = max(1, (len(puts)+maxSpanOps-1)/maxSpanOps)
	for i := 0; i < len(puts); i += step {
		p := puts[i]
		d := us(p.end - p.start)
		if err := enc.Encode(span{Trace: fmt.Sprintf("put-%d", i), Name: "ray.put", Start: us(p.start), Dur: d, Self: d}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
