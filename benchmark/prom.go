package main

import "repro/internal/telemetry"

// promSamples is one scrape of the server's /metrics, parsed by
// telemetry.ParsePrometheus (the parser cmd/pbxtop scrapes pbxd with).
type promSamples []telemetry.PromSample

// sum adds every series of the family name whose labels include all the
// given key, value pairs.
func (s promSamples) sum(name string, kv ...string) float64 {
	total := 0.0
series:
	for _, sample := range s {
		if sample.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if sample.Label(kv[i]) != kv[i+1] {
				continue series
			}
		}
		total += sample.Value
	}
	return total
}

// delta is s − before under sum: before's series are appended negated,
// so every sum over the result is the counter's increase in between.
func (s promSamples) delta(before promSamples) promSamples {
	out := append(promSamples(nil), s...)
	for _, b := range before {
		b.Value = -b.Value
		out = append(out, b)
	}
	return out
}
