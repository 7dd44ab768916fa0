package obs

import (
	"bufio"
	"io"
	"strconv"
)

// WriteProm renders the registry in Prometheus text format: families
// in registration order, HELP/TYPE once per family, children in
// registration order. The output is deterministic for a fixed
// registration sequence, which the golden test pins.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	var snap HistSnapshot
	for _, f := range fams {
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.help))
		bw.WriteString("\n# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		r.mu.Lock()
		children := make([]*child, len(f.children))
		copy(children, f.children)
		r.mu.Unlock()
		for _, c := range children {
			switch f.kind {
			case kindCounter:
				bw.WriteString(f.name)
				bw.WriteString(c.labels)
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatUint(c.counter.Load(), 10))
				bw.WriteByte('\n')
			case kindGauge:
				v := 0.0
				if c.gaugeFn != nil {
					v = c.gaugeFn()
				} else if c.gauge != nil {
					v = c.gauge.Load()
				}
				bw.WriteString(f.name)
				bw.WriteString(c.labels)
				bw.WriteByte(' ')
				bw.WriteString(formatFloat(v))
				bw.WriteByte('\n')
			case kindHistogram:
				c.hist.Snapshot(&snap)
				writePromHistogram(bw, f.name, c.labels, &snap)
			}
		}
	}
	return bw.Flush()
}

// writePromHistogram renders one histogram child: cumulative _bucket
// series over the bucket bounds in seconds (each le inclusive, as
// Prometheus defines it), then _sum and _count.
func writePromHistogram(bw *bufio.Writer, name, labels string, s *HistSnapshot) {
	for i := 0; i < histBounds; i++ {
		b := bucketBound(i)
		writeBucketLine(bw, name, labels, formatFloat(float64(b)/1e9), s.CountAtMost(b))
	}
	writeBucketLine(bw, name, labels, "+Inf", s.Count)
	bw.WriteString(name)
	bw.WriteString("_sum")
	bw.WriteString(labels)
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(float64(s.Sum) / 1e9))
	bw.WriteByte('\n')
	bw.WriteString(name)
	bw.WriteString("_count")
	bw.WriteString(labels)
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(s.Count, 10))
	bw.WriteByte('\n')
}

// writeBucketLine writes one cumulative bucket sample, splicing the
// le label into the child's label set.
func writeBucketLine(bw *bufio.Writer, name, labels, le string, count uint64) {
	bw.WriteString(name)
	bw.WriteString("_bucket")
	if labels == "" {
		bw.WriteString(`{le="`)
		bw.WriteString(le)
		bw.WriteString(`"}`)
	} else {
		// labels is "{...}"; insert before the closing brace.
		bw.WriteString(labels[:len(labels)-1])
		bw.WriteString(`,le="`)
		bw.WriteString(le)
		bw.WriteString(`"}`)
	}
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(count, 10))
	bw.WriteByte('\n')
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
