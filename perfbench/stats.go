package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// chunk is one slice of a measured loop: the operations it completed,
// the input lines those operations covered, and the time they kept the
// system busy. Throughput metrics are medians over chunks, so one
// stalled second moves them less than a whole-run average would.
type chunk struct {
	ops   int
	lines int
	busy  time.Duration
}

// loopStats is what one measured loop produced.
type loopStats struct {
	attempted int64
	failed    int64
	firstErr  error
	lat       []time.Duration
	chunks    []chunk
	rssMB     float64
}

// fail counts a failed or incorrect operation, keeping the first cause.
func (ls *loopStats) fail(err error) {
	ls.failed++
	if ls.firstErr == nil {
		ls.firstErr = err
	}
}

// merge folds another loop's results into ls (closed-loop clients each
// keep their own stats and are merged at the end).
func (ls *loopStats) merge(o *loopStats) {
	ls.attempted += o.attempted
	ls.failed += o.failed
	if ls.firstErr == nil {
		ls.firstErr = o.firstErr
	}
	ls.lat = append(ls.lat, o.lat...)
	ls.chunks = append(ls.chunks, o.chunks...)
	ls.rssMB = max(ls.rssMB, o.rssMB)
}

// rates returns the median over chunks of operations and lines per busy
// second.
func (ls *loopStats) rates() (opsPerS, linesPerS float64) {
	var ops, lines []float64
	for _, c := range ls.chunks {
		if c.busy <= 0 || c.ops == 0 {
			continue
		}
		ops = append(ops, float64(c.ops)/c.busy.Seconds())
		lines = append(lines, float64(c.lines)/c.busy.Seconds())
	}
	return median(ops), median(lines)
}

// quantile returns the q-quantile (0..1) of sorted durations by the
// nearest-rank rule, in milliseconds.
func quantileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// beyondP99 is how many samples lie above the p99 rank.
func beyondP99(n int) int {
	return n - int(math.Ceil(0.99*float64(n)))
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by linear
// interpolation between closest ranks.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		lo := int(math.Floor(x))
		hi := int(math.Ceil(x))
		return s[lo] + (s[hi]-s[lo])*(x-float64(lo))
	}
	return at(0.25), at(0.75)
}

// rssSampler records the peak resident set size of the process while
// a measured loop runs. It samples /proc/self/statm; where that file
// does not exist it falls back to the whole process's peak from
// getrusage.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // bytes
}

const rssEvery = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if n := residentBytes(); n > s.peak {
				s.peak = n
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// mb stops the sampler and returns the peak in MiB.
func (s *rssSampler) mb() float64 {
	close(s.stop)
	<-s.done
	if s.peak <= 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return float64(s.peak) / (1 << 20)
}

func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
