package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// memStatsCache amortizes runtime.ReadMemStats across the gauges that
// read from it: one stop-the-world sample per scrape burst, not one
// per series.
type memStatsCache struct {
	mu   sync.Mutex
	at   time.Time
	m    runtime.MemStats
	once bool
}

func (c *memStatsCache) get() *runtime.MemStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.once || time.Since(c.at) > time.Second {
		runtime.ReadMemStats(&c.m)
		c.at = time.Now()
		c.once = true
	}
	return &c.m
}

var registerRuntimeOnce sync.Once

// RegisterRuntime registers Go runtime and build metrics on the
// default registry (once; later calls are no-ops): goroutine count,
// heap and sys bytes, GC pause total and cycle count, GOMAXPROCS, and
// a constant build_info series carrying the Go version and main-module
// version, so a scrape can correlate tail latency with GC and pin
// which build produced it.
func RegisterRuntime() {
	registerRuntimeOnce.Do(func() {
		r := Default()
		var ms memStatsCache
		r.GaugeFunc("go_goroutines", "Number of live goroutines.",
			func() float64 { return float64(runtime.NumGoroutine()) })
		r.GaugeFunc("go_gomaxprocs", "GOMAXPROCS: the scheduler's CPU parallelism bound.",
			func() float64 { return float64(runtime.GOMAXPROCS(0)) })
		r.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.",
			func() float64 { return float64(ms.get().HeapAlloc) })
		r.GaugeFunc("go_heap_objects", "Number of allocated heap objects.",
			func() float64 { return float64(ms.get().HeapObjects) })
		r.GaugeFunc("go_sys_bytes", "Total bytes obtained from the OS.",
			func() float64 { return float64(ms.get().Sys) })
		r.GaugeFunc("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.",
			func() float64 { return float64(ms.get().PauseTotalNs) / 1e9 })
		r.GaugeFunc("go_gc_cycles_total", "Completed GC cycles.",
			func() float64 { return float64(ms.get().NumGC) })

		goVersion := runtime.Version()
		modVersion := "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
			modVersion = bi.Main.Version
		}
		g := r.Gauge("ehnad_build_info",
			"Constant 1; the labels carry the Go toolchain and main-module versions.",
			L("go_version", goVersion), L("module_version", modVersion))
		g.Set(1)
	})
}
