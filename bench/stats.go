package main

import (
	"fmt"
	"sort"
)

// quantile returns the q-quantile (0..1) of values by linear interpolation
// between order statistics; 0 for an empty slice. values is not modified.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(values []float64) float64 { return quantile(values, 0.5) }

func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}

// results collects the metrics of one run. Each name may be put once: a
// second put is a bug in the benchmark and is reported as an error at the
// end of the run rather than silently overwriting a measurement.
type results struct {
	values map[string]metricValue
	order  []string
	dups   []string
}

type metricValue struct {
	Value   float64
	Samples int
}

func newResults() *results { return &results{values: map[string]metricValue{}} }

// put records a metric with the number of samples behind it.
func (r *results) put(name string, value float64, samples int) {
	if _, ok := r.values[name]; ok {
		r.dups = append(r.dups, name)
		return
	}
	r.values[name] = metricValue{value, samples}
	r.order = append(r.order, name)
}

// check verifies the run emitted exactly the declared metrics.
func (r *results) check(declared []metricSpec) error {
	if len(r.dups) > 0 {
		return fmt.Errorf("metrics emitted more than once: %v", r.dups)
	}
	want := map[string]bool{}
	var missing []string
	for _, m := range declared {
		want[m.Name] = true
		if _, ok := r.values[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	var extra []string
	for _, name := range r.order {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		return fmt.Errorf("metrics do not match BENCHMARK.json: missing %v, undeclared %v", missing, extra)
	}
	return nil
}
