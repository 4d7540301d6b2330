package main

import "sort"

// dist summarizes raw samples exactly: percentiles come from the
// sorted samples themselves, never from histogram buckets.
type dist struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	// Tail is the highest percentile with at least ten samples beyond
	// it; TailPct names that percentile. With fewer than eleven
	// samples there is none, and Tail is the maximum (TailPct 100).
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	Mean    float64 `json:"mean"`
}

func summarize(xs []float64) dist {
	n := len(xs)
	if n == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: n, P50: median(s), Tail: s[n-1], TailPct: 100}
	if n >= 11 {
		d.Tail = s[n-11]
		d.TailPct = 100 * float64(n-10) / float64(n)
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	d.Mean = sum / float64(n)
	return d
}

// median of sorted samples (mean of the middle pair for even counts).
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf sorts a copy and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// p99 is the nearest-rank 99th percentile.
func p99(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := (99*len(s)+99)/100 - 1
	return s[i]
}
