// Package stats provides the statistical primitives used by the
// evaluation: percentiles, histograms, rolling windows, five-number
// summaries (boxplots), and binary-classification metrics
// (precision/recall/F1). These back every table and figure in
// EXPERIMENTS.md.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (p in [0, 100]) of xs using
// linear interpolation between order statistics. It panics on an empty
// input; callers are expected to guard.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: percentile of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := float64(p / 100 * float64(len(s)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 if len < 2).
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(n-1))
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// FiveNumber is a boxplot summary: minimum, first quartile, median, third
// quartile, maximum.
type FiveNumber struct {
	Min, Q1, Median, Q3, Max float64
}

// Summarize computes the five-number summary of xs. It panics on an empty
// input.
func Summarize(xs []float64) FiveNumber {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return FiveNumber{
		Min:    s[0],
		Q1:     percentileSorted(s, 25),
		Median: percentileSorted(s, 50),
		Q3:     percentileSorted(s, 75),
		Max:    s[len(s)-1],
	}
}

// String renders the summary in a compact fixed-point form for report
// tables.
func (f FiveNumber) String() string {
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f",
		f.Min, f.Q1, f.Median, f.Q3, f.Max)
}

// Histogram is a fixed-bin-width histogram over [Lo, Hi). Values outside
// the range are clamped into the first/last bin so no observation is lost.
type Histogram struct {
	Lo, Hi float64
	Counts []uint64
	N      uint64
}

// NewHistogram creates a histogram with the given number of bins over
// [lo, hi). It panics if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.N++
}

// Percentile returns the approximate p-th percentile from the bin counts
// (bin midpoint of the bin where the cumulative count crosses p%). It
// returns 0 if the histogram is empty.
func (h *Histogram) Percentile(p float64) float64 {
	if h.N == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.N)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			return h.Lo + float64((float64(i)+0.5)*width)
		}
	}
	return h.Hi
}

// Rolling is a fixed-capacity rolling window over a scalar series; it
// maintains the running sum so the mean is O(1). This is the smoothing
// primitive of the paper's rolling-window error detector (parameter rw).
type Rolling struct {
	buf  []float64
	head int
	n    int
	sum  float64
}

// NewRolling returns a rolling window of the given size (>= 1).
func NewRolling(size int) *Rolling {
	if size < 1 {
		panic("stats: rolling window size must be >= 1")
	}
	return &Rolling{buf: make([]float64, size)}
}

// Push adds a value, evicting the oldest if the window is full.
func (r *Rolling) Push(x float64) {
	if r.n == len(r.buf) {
		r.sum -= r.buf[r.head]
	} else {
		r.n++
	}
	r.buf[r.head] = x
	r.sum += x
	r.head = (r.head + 1) % len(r.buf)
}

// Mean returns the mean of the values currently in the window (0 when
// empty).
func (r *Rolling) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Full reports whether the window has reached its capacity.
func (r *Rolling) Full() bool { return r.n == len(r.buf) }

// Len returns the number of values currently in the window.
func (r *Rolling) Len() int { return r.n }

// Reset empties the window.
func (r *Rolling) Reset() {
	r.head, r.n, r.sum = 0, 0, 0
}

// Confusion is a binary-classification confusion matrix over experiment
// outcomes: "positive" means a safety violation actually occurred (or,
// for the detector, was predicted).
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one (actual, predicted) pair.
func (c *Confusion) Add(actual, predicted bool) {
	switch {
	case actual && predicted:
		c.TP++
	case actual && !predicted:
		c.FN++
	case !actual && predicted:
		c.FP++
	default:
		c.TN++
	}
}

// Precision returns TP/(TP+FP), or 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, or 0 when
// undefined.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix and derived metrics for reports.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d P=%.2f R=%.2f F1=%.2f",
		c.TP, c.FP, c.TN, c.FN, c.Precision(), c.Recall(), c.F1())
}

// WilsonCI returns the Wilson score confidence interval for a binomial
// proportion: successes out of n trials at critical value z (1.96 for
// 95%). Unlike the normal approximation it stays inside [0, 1] and
// remains defined at the campaign-report edges — a single-run cell
// (n = 1) gives a wide but finite interval, and an empty cell (n = 0)
// returns (0, 1), the honest "no information" answer, never NaN.
func WilsonCI(successes, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	p := float64(successes) / float64(n)
	nn := float64(n)
	z2 := z * z
	denom := 1 + z2/nn
	center := p + z2/(2*nn)
	margin := float64(z * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn)))
	lo = (center - margin) / denom
	hi = (center + margin) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
