package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// floors returns each item's fastest time over a run's passes:
// passes[p][i] is item i's time in pass p, and every pass runs the same
// items in the same order. On a shared host, interference only ever adds
// time, and it comes and goes within seconds, so an item's fastest run is
// the steadiest estimate of what the code itself costs.
func floors(passes [][]float64) ([]float64, error) {
	if len(passes) == 0 {
		return nil, fmt.Errorf("no passes")
	}
	fl := append([]float64(nil), passes[0]...)
	for p, lat := range passes[1:] {
		if len(lat) != len(fl) {
			return nil, fmt.Errorf("pass %d timed %d items, pass 0 timed %d", p+1, len(lat), len(fl))
		}
		for i, x := range lat {
			fl[i] = math.Min(fl[i], x)
		}
	}
	return fl, nil
}

// shares divides each layer's self time by their sum. The shares of
// layers with non-negative self times sum to 1 up to rounding; a run with
// no measured time at all yields zeros.
func shares(self map[string]float64) map[string]float64 {
	var total float64
	for _, v := range self {
		total += v
	}
	out := make(map[string]float64, len(self))
	for k, v := range self {
		if total > 0 {
			out[k] = v / total
		} else {
			out[k] = 0
		}
	}
	return out
}

// spread summarises samples as min/median/max.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%.4g/%.4g/%.4g", s[0], median(s), s[len(s)-1])
}
