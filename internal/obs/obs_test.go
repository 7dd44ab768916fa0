package obs

import (
	"bufio"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// TestPromExpositionGolden pins the text format end to end: HELP/TYPE
// pairs, stable registration-order output, label rendering, counter/
// gauge/histogram syntax. Any format drift shows up as a diff here
// before a scraper chokes on it.
func TestPromExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.", L("path", "/v1/neighbors"), L("code", "2xx"))
	c.Add(41)
	c.Inc()
	g := r.Gauge("test_nodes", "Vectors resident.")
	g.Set(100000)
	r.GaugeFunc("test_ratio", "A computed ratio.", func() float64 { return 0.25 })
	// 0 and exactly 2^20 ns count in le="0.001048576" (le is ≤);
	// 2^20+1 ns counts only from the next bound up.
	h := r.Histogram("test_latency_seconds", "Request latency.")
	h.Observe(0)
	h.Observe(1 << 20)
	h.Observe(1<<20 + 1)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total{code="2xx",path="/v1/neighbors"} 42
# HELP test_nodes Vectors resident.
# TYPE test_nodes gauge
test_nodes 100000
# HELP test_ratio A computed ratio.
# TYPE test_ratio gauge
test_ratio 0.25
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="1.024e-06"} 1
test_latency_seconds_bucket{le="4.096e-06"} 1
test_latency_seconds_bucket{le="1.6384e-05"} 1
test_latency_seconds_bucket{le="6.5536e-05"} 1
test_latency_seconds_bucket{le="0.000262144"} 1
test_latency_seconds_bucket{le="0.001048576"} 2
test_latency_seconds_bucket{le="0.004194304"} 3
test_latency_seconds_bucket{le="0.016777216"} 3
test_latency_seconds_bucket{le="0.067108864"} 3
test_latency_seconds_bucket{le="0.268435456"} 3
test_latency_seconds_bucket{le="1.073741824"} 3
test_latency_seconds_bucket{le="4.294967296"} 3
test_latency_seconds_bucket{le="17.179869184"} 3
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 0.002097153
test_latency_seconds_count 3
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPromExpositionParseable walks every line of a busy registry's
// output and checks the structural invariants a scraper relies on:
// each family has exactly one HELP and one TYPE line (in that order,
// before its samples), every sample line is "name[{labels}] value"
// with a parseable value, and histogram buckets are cumulative.
func TestPromExpositionParseable(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A counter.").Add(7)
	r.Gauge("b_gauge", "A gauge with\nnewline help.").Set(1.5)
	h := r.Histogram("c_seconds", "A latency histogram.", L("stage", "candidates"))
	for i := 0; i < 1000; i++ {
		h.Observe(int64(i) * 1000)
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}

	seenHelp := map[string]bool{}
	seenType := map[string]bool{}
	var lastBucket uint64
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.SplitN(line[len("# HELP "):], " ", 2)[0]
			if seenHelp[name] {
				t.Fatalf("duplicate HELP for %s", name)
			}
			seenHelp[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line[len("# TYPE "):], " ", 2)
			name := parts[0]
			if !seenHelp[name] {
				t.Fatalf("TYPE before HELP for %s", name)
			}
			if seenType[name] {
				t.Fatalf("duplicate TYPE for %s", name)
			}
			seenType[name] = true
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown TYPE %q", parts[1])
			}
			lastBucket = 0
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		if strings.Contains(series, "_bucket") {
			var n uint64
			for _, ch := range val {
				if ch < '0' || ch > '9' {
					t.Fatalf("non-integer bucket count %q in %q", val, line)
				}
				n = n*10 + uint64(ch-'0')
			}
			if n < lastBucket {
				t.Fatalf("bucket counts not cumulative at %q (%d < %d)", line, n, lastBucket)
			}
			lastBucket = n
		}
		if strings.Contains(series, "{") && !strings.HasSuffix(series, "}") {
			t.Fatalf("unbalanced label braces in %q", series)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seenHelp) != 3 || len(seenType) != 3 {
		t.Fatalf("expected 3 families, saw HELP for %d, TYPE for %d", len(seenHelp), len(seenType))
	}
}

// TestRegistryIdempotent: re-registering the same (name, labels)
// returns the same instrument; a kind clash panics.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "X.", L("a", "b"))
	c2 := r.Counter("x_total", "X.", L("a", "b"))
	if c1 != c2 {
		t.Fatal("same series produced distinct counters")
	}
	c3 := r.Counter("x_total", "X.", L("a", "c"))
	if c1 == c3 {
		t.Fatal("distinct labels shared a counter")
	}
	// Label order must not matter.
	h1 := r.Histogram("y_seconds", "Y.", L("a", "1"), L("b", "2"))
	h2 := r.Histogram("y_seconds", "Y.", L("b", "2"), L("a", "1"))
	if h1 != h2 {
		t.Fatal("label order changed series identity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.Gauge("x_total", "X as a gauge.")
}

// TestHandlerMergesRegistries: the HTTP handler concatenates the
// receiver and extras with the right content type.
func TestHandlerMergesRegistries(t *testing.T) {
	a := NewRegistry()
	a.Counter("from_a_total", "A.").Inc()
	b := NewRegistry()
	b.Gauge("from_b", "B.").Set(2)
	rec := httptest.NewRecorder()
	a.Handler(b).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "from_a_total 1") || !strings.Contains(body, "from_b 2") {
		t.Fatalf("merged exposition missing series:\n%s", body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
}

// TestRuntimeMetricsRegistered: RegisterRuntime lands the Go runtime
// series on the default registry with sane values.
func TestRuntimeMetricsRegistered(t *testing.T) {
	RegisterRuntime()
	var b strings.Builder
	if err := Default().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{
		"go_goroutines", "go_gomaxprocs", "go_heap_alloc_bytes",
		"go_gc_pause_seconds_total", "ehnad_build_info",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("runtime metric %s missing from default registry", name)
		}
	}
	if !strings.Contains(out, runtime.Version()) {
		t.Errorf("build_info missing go version %s", runtime.Version())
	}
}

// TestObserveZeroAlloc asserts the two hot-path operations allocate
// nothing — the property that lets the search path carry metrics while
// TestSearchIntoZeroAlloc still demands 0 allocs/query.
func TestObserveZeroAlloc(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := NewRegistry()
	c := r.Counter("hot_total", "Hot counter.")
	h := r.Histogram("hot_seconds", "Hot histogram.")
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Errorf("Counter.Inc allocated %v times", allocs)
	}
	v := int64(12345)
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(v); v += 997 }); allocs != 0 {
		t.Errorf("Histogram.Observe allocated %v times", allocs)
	}
	start := time.Now()
	if allocs := testing.AllocsPerRun(1000, func() { h.ObserveSince(start) }); allocs != 0 {
		t.Errorf("Histogram.ObserveSince allocated %v times", allocs)
	}
}

// BenchmarkCounterInc and BenchmarkHistogramObserve report ns/op and
// assert 0 allocs/op via -benchmem in CI's bench smoke.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "Bench counter.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "Bench histogram.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i)*31 + 1000)
	}
}
