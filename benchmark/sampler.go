package main

import (
	"bytes"
	"os"
	"strconv"
	"time"

	"ray/ray"
)

// gauges are read every samplePeriod while the blocks run.
type gauges struct {
	// rssPeak is each block's highest resident set size, in bytes.
	rssPeak []float64
	// Traced blocks only: the longest local scheduler queue on any node,
	// and the most object store bytes resident, summed over nodes.
	maxQueueLen, peakUsed float64
	n                     int // samples taken in traced blocks
}

// samplePeriod keeps the sampler's own cost far below the load's.
const samplePeriod = 5 * time.Millisecond

type sampler struct {
	stopCh chan struct{}
	done   chan gauges
}

// startSampler reads the gauges until stop; layers adds the per-layer
// gauges in traced blocks.
func startSampler(rt *ray.Runtime, sched *schedule, layers bool) *sampler {
	s := &sampler{stopCh: make(chan struct{}), done: make(chan gauges, 1)}
	go func() {
		out := gauges{rssPeak: make([]float64, len(sched.traced))}
		rss := newRSSReader()
		defer rss.close()
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				s.done <- out
				return
			case <-tick.C:
			}
			cur := int(sched.cur.Load())
			if cur < 0 || cur >= len(sched.traced) {
				continue
			}
			out.rssPeak[cur] = max(out.rssPeak[cur], rss.read())
			if !layers || !sched.traced[cur] {
				continue
			}
			var used float64
			for _, n := range rt.Cluster().NodeList() {
				out.maxQueueLen = max(out.maxQueueLen, float64(n.LocalScheduler().Stats().Queued))
				used += float64(n.Store().Used())
			}
			out.peakUsed = max(out.peakUsed, used)
			out.n++
		}
	}()
	return s
}

func (s *sampler) stop() gauges {
	close(s.stopCh)
	return <-s.done
}

// rssReader reads the resident set size from /proc/self/statm into a
// fixed buffer, so sampling allocates nothing.
type rssReader struct {
	f   *os.File
	buf [128]byte
}

func newRSSReader() *rssReader {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return &rssReader{}
	}
	return &rssReader{f: f}
}

// read returns the resident set size in bytes, 0 when it is unknown.
func (r *rssReader) read() float64 {
	if r.f == nil {
		return 0
	}
	n, err := r.f.ReadAt(r.buf[:], 0)
	if n == 0 && err != nil {
		return 0
	}
	fields := bytes.Fields(r.buf[:n])
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize())
}

func (r *rssReader) close() {
	if r.f != nil {
		r.f.Close()
	}
}
