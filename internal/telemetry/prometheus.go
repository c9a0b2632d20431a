package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4). Families appear in name order and
// series in registration order, so output is deterministic for a given
// program state. Export is off the record path; it may allocate.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind.promType())
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, promLabel(f.label, s.labelValue), s.c.Value())
			case kindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, promLabel(f.label, s.labelValue), promFloat(s.g.Value()))
			case kindHistogram:
				writePromHistogram(bw, f.name, f.label, s.labelValue, s.h)
			}
		}
	}
	return bw.Flush()
}

func (k metricKind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// promLabel renders `{label="value"}` or "" for unlabeled series.
func promLabel(label, value string) string {
	if label == "" {
		return ""
	}
	return `{` + label + `="` + value + `"}`
}

// promBucketLabel renders the {le="..."} label set, merging an
// optional series label.
func promBucketLabel(label, value, le string) string {
	if label == "" {
		return `{le="` + le + `"}`
	}
	return `{` + label + `="` + value + `",le="` + le + `"}`
}

// promFloat formats a float the way Prometheus expects (shortest
// round-trip representation; +Inf/-Inf/NaN spelled out).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writePromHistogram emits the cumulative bucket series plus _sum and
// _count for one histogram.
func writePromHistogram(w io.Writer, name, label, value string, h *Histogram) {
	var cum int64
	for i, upper := range h.upper {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, promBucketLabel(label, value, promFloat(upper)), cum)
	}
	cum += h.counts[len(h.upper)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, promBucketLabel(label, value, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabel(label, value), promFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, promLabel(label, value), h.Count())
}
