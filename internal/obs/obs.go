// Package obs is the daemon's metrics plane: dependency-free,
// allocation-free-on-the-hot-path counters, gauges and log-bucketed
// latency histograms behind a registry with a Prometheus text-format
// exposition handler.
//
// Design constraints, in order:
//
//   - The instruments must be safe to call from the serving hot path.
//     Counter.Inc and Histogram.Observe are single atomic adds into
//     preallocated storage — no locks, no allocations, no branches on
//     shared mutable state — so the zero-alloc SearchInto guarantee
//     (ann's TestSearchIntoZeroAlloc) survives instrumentation.
//   - Histograms store no samples: one counter per exposition bound
//     (the 13 powers of four from 2^10 to 2^34 ns, ≈1µs to ≈17s) plus
//     an overflow counter, each bound an inclusive le as Prometheus
//     defines it, and a snapshot is a plain array copy.
//   - Exposition must be boring: stable ordering (registration order),
//     HELP/TYPE pairs per family, standard counter/gauge/histogram
//     text syntax a Prometheus scraper parses as-is.
//
// Registration is idempotent: asking for an existing (name, labels)
// pair returns the same instrument, so package-level metrics in
// library code (ann, wal) and per-server metrics in the daemon can
// both register eagerly without double-registration errors.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key=value pair attached to an instrument at
// registration. Labels are baked into the series — there is no
// per-observation label lookup, which is what keeps Observe lock-free.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. Lock-free, allocation-free.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. Stored as float64 bits so
// ratios and byte counts share one type.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind tags a family for TYPE exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled series inside a family. Exactly one of the
// value fields is set, matching the family kind.
type child struct {
	labels  string // rendered {k="v",...}, "" for unlabeled
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups every series sharing a metric name: one HELP/TYPE pair,
// children in registration order.
type family struct {
	name     string
	help     string
	kind     metricKind
	children []*child
	byLabels map[string]int
}

// Registry holds instruments in registration order and renders them in
// Prometheus text format. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	index map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

// def is the process-wide default registry, home of library-level
// metrics (ann query counters, wal latency histograms, Go runtime
// stats). The daemon exposes it alongside its per-server registry.
var def = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return def }

// renderLabels renders a label set sorted by key, so the same logical
// series always maps to the same string whatever order the caller
// passed.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\n\"") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP line.
func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

// register finds or creates the (name, labels) child of the given kind.
// A kind mismatch on an existing name panics: that is a programming
// error (two subsystems claiming one name as different types), not a
// runtime condition.
func (r *Registry) register(name, help string, kind metricKind, labels []Label) *child {
	rendered := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.index[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byLabels: make(map[string]int)}
		r.index[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	if i, ok := f.byLabels[rendered]; ok {
		return f.children[i]
	}
	c := &child{labels: rendered}
	f.byLabels[rendered] = len(f.children)
	f.children = append(f.children, c)
	return c
}

// Counter returns the counter registered under (name, labels),
// creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.counter == nil {
		c.counter = new(Counter)
	}
	return c.counter
}

// Gauge returns the gauge registered under (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	c := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.gauge == nil {
		c.gauge = new(Gauge)
		c.gaugeFn = nil
	}
	return c.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Re-registering the same (name, labels) replaces the callback — the
// behavior a restarted server in one test process needs.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	c := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c.gauge = nil
	c.gaugeFn = fn
}

// GaugeValue reads the current value of the gauge registered under
// (name, labels), evaluating the callback for GaugeFunc series. It is
// how /healthz reports the same numbers /metrics exposes: both read
// the one registered instrument, so they cannot drift.
func (r *Registry) GaugeValue(name string, labels ...Label) (float64, bool) {
	rendered := renderLabels(labels)
	r.mu.Lock()
	f := r.index[name]
	var c *child
	if f != nil && f.kind == kindGauge {
		if i, ok := f.byLabels[rendered]; ok {
			c = f.children[i]
		}
	}
	r.mu.Unlock() // evaluate gaugeFn outside the lock; it may scrape live state
	switch {
	case c == nil:
		return 0, false
	case c.gaugeFn != nil:
		return c.gaugeFn(), true
	case c.gauge != nil:
		return c.gauge.Load(), true
	default:
		return 0, false
	}
}

// Histogram returns the duration histogram registered under (name,
// labels): observations are nanoseconds, exposition is in seconds.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	c := r.register(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.hist == nil {
		c.hist = new(Histogram)
	}
	return c.hist
}

// Handler serves this registry (and any extras, in order) in
// Prometheus text format. Families are written registry by registry,
// so keep metric names disjoint across the merged set.
func (r *Registry) Handler(extras ...*Registry) http.Handler {
	regs := append([]*Registry{r}, extras...)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, reg := range regs {
			reg.WriteProm(w)
		}
	})
}
