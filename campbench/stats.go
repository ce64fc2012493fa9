package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method); with
// fewer than two values both are that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// timing summarizes a sample of durations: the median plus the highest
// percentile that still has at least ten samples beyond it (Tail, at
// TailPct; zero when the sample is too small to have one above the
// median).
type timing struct {
	Median  float64 `json:"median"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
	N       int     `json:"n"`
}

func summarize(xs []float64) timing {
	t := timing{Median: median(xs), N: len(xs)}
	s := sorted(xs)
	// The sample at sorted index k has n-1-k samples beyond it.
	if k := len(s) - 11; k >= 0 && float64(k) > float64(len(s)-1)/2 {
		t.Tail = s[k]
		t.TailPct = math.Floor(100 * float64(k+1) / float64(len(s)))
	}
	return t
}
