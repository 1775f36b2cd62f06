package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed operation of a phase. at is the offset of the
// moment the operation was due (open loop, paced) or sent (closed loop)
// from the start of the phase; it decides which window the sample is in.
type sample struct {
	at  time.Duration
	ms  float64
	ok  bool
	err float64 // position error in meters, when ok
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// rule, or NaN when xs is empty. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the middle value of xs, or the mean of the middle two (as
// Python's statistics.median, which the acceptance check uses), NaN when xs
// is empty. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// window is the length of the equal windows a timed phase is cut into.
const window = time.Second

// windowed cuts a phase into one-second windows and returns, per non-empty
// window, its successful samples. A tail shorter than a window joins the
// last one.
func windowed(ss []sample, length time.Duration) [][]sample {
	n := max(1, int(length/window))
	wins := make([][]sample, n)
	for _, s := range ss {
		if !s.ok {
			continue
		}
		w := min(max(0, int(s.at/window)), n-1)
		wins[w] = append(wins[w], s)
	}
	out := wins[:0]
	for _, w := range wins {
		if len(w) > 0 {
			out = append(out, w)
		}
	}
	return out
}

// The box the benchmark runs on is shared, and its noise is one-sided: a
// neighbour slows the sift and lsh loops by a third to a half, most often
// for one to five seconds at a time, and how much of a minute is spent that
// way drifts between a twentieth and all of it. A whole-phase statistic, or
// a median over windows, follows that drift; the quiet quartile does not
// until three windows in four are disturbed. So every timing the benchmark
// puts a bound on is the per-window statistic of the window a quarter of
// the way up from the quietest: the lower quartile of window medians, the
// upper quartile of window rates. (Nothing measured inside a run survives a
// neighbour that stays busy for the whole run; see README.)

// quietLatency is the lower quartile over windows of each window's median.
func quietLatency(wins [][]sample) float64 {
	per := make([]float64, len(wins))
	for i, w := range wins {
		per[i] = median(latencies(w))
	}
	return percentile(per, 0.25)
}

// quietRate is the upper quartile over windows of answers per second,
// taken between the first and the last answer of a window so that it is not
// rounded to whole requests.
func quietRate(wins [][]sample) float64 {
	var per []float64
	for _, w := range wins {
		first, last := time.Duration(math.MaxInt64), time.Duration(0)
		for _, s := range w {
			done := s.at + time.Duration(s.ms*float64(time.Millisecond))
			first, last = min(first, done), max(last, done)
		}
		if len(w) > 1 && last > first {
			per = append(per, float64(len(w)-1)/(last-first).Seconds())
		}
	}
	return percentile(per, 0.75)
}

func latencies(ss []sample) []float64 {
	var xs []float64
	for _, s := range ss {
		if s.ok {
			xs = append(xs, s.ms)
		}
	}
	return xs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
