// Command ehna-bench is the repository's benchmark: four workloads —
// train embeddings, read neighbours, write durably, restart — measured
// end to end against the real binaries and library, and, in a separate
// traced run, the public functions of each layer timed from outside.
// bench/README.md has the definitions; BENCHMARK.json at the repository
// root is the contract the driver runs it under.
//
//	bash bench/run.sh --workload read_batch --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                  # all four workloads, untraced
//	bash bench/run.sh --aa 5           # A/A: two interleaved sets of 5 runs each
//
// The last line of standard output of a one-workload run is the result
// object; everything else goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ehna/internal/vecmath"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dry      bool
	root     string // repository checkout
	bin      string // directory holding ehnad and ehnad-mkstore
}

// outcome is what one workload run found.
type outcome struct {
	attempted int
	failed    int
	gates     []string           // correctness gates that did not hold
	values    map[string]float64 // metric name → value
}

func (o *outcome) fail(n int)                   { o.failed += n }
func (o *outcome) gate(format string, a ...any) { o.gates = append(o.gates, fmt.Sprintf(format, a...)) }
func (o *outcome) set(name string, v float64)   { o.values[name] = v }
func (o *outcome) correct() bool                { return o.failed == 0 && len(o.gates) == 0 }

// setRecall reports mean recall@10 as the run's quality and gates it.
func (o *outcome) setRecall(recall float64) {
	o.set("quality", recall)
	if recall < recallFloor {
		o.gate("recall@10 %.4f below %.2f", recall, recallFloor)
	}
}

// run is the state one workload run shares across its phases.
type run struct {
	cfg    config
	sz     sizes
	sb     *sandbox
	ref    *reference         // the speed reference the run's time metrics are scaled by
	tr     *tracer            // nil on an untraced run
	phases map[string]float64 // wall seconds per phase, for the environment block
	flags  []string           // daemon flags of the last boot, for the environment block
	// segments holds every segment's value of the window's time metrics,
	// for the environment block.
	segments map[string][]float64
}

// refBurst is how many times the reference kernel runs at each sampling
// point: three, so that even train_epoch's ten epochs and three set-ups
// leave some forty samples to take a quartile of.
const refBurst = 3

func (r *run) sampleReference() { r.ref.observe(refBurst) }

// phase records the wall time of one named phase of the run.
func (r *run) phase(name string, start time.Time) {
	r.phases[name] += time.Since(start).Seconds()
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var cfg config
	var trace, aa int
	flag.StringVar(&cfg.workload, "workload", "", "train_epoch, read_batch, write_mixed or restart (empty = all four, one after the other)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the measured window the op counts are sized for (0 = run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
	flag.BoolVar(&cfg.dry, "dry", false, "print the result object with every metric name and no measurement")
	flag.IntVar(&aa, "aa", 0, "A/A check: two interleaved sets of this many full runs per workload")
	flag.StringVar(&cfg.root, "root", "..", "repository checkout")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the ehnad and ehnad-mkstore binaries (default <root>/.bench_build/bin, where bench/run.sh puts them)")
	flag.Parse()
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "ehna-bench:", err)
		return 1
	}
	cfg.trace = trace != 0
	if cfg.bin == "" {
		cfg.bin = filepath.Join(cfg.root, ".bench_build", "bin")
	}
	if cfg.seconds == 0 {
		spec, err := loadSpec(cfg.root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ehna-bench:", err)
			return 1
		}
		cfg.seconds = float64(spec.RunSeconds)
	}
	if cfg.seconds < 0 {
		fmt.Fprintln(os.Stderr, "ehna-bench: -seconds must be positive")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if aa > 0 {
		if err := runAA(ctx, cfg, aa); err != nil {
			fmt.Fprintln(os.Stderr, "ehna-bench:", err)
			return 1
		}
		return 0
	}
	names := workloads
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	for _, name := range names {
		c := cfg
		c.workload = name
		if err := runOne(ctx, c); err != nil {
			fmt.Fprintf(os.Stderr, "ehna-bench: %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

// runOne runs one workload and prints its result object. An error means
// the run could not be made at all (no binaries, daemon will not boot,
// interrupted) and nothing is printed.
func runOne(ctx context.Context, cfg config) error {
	var body func(context.Context, *run, *outcome) error
	switch cfg.workload {
	case wTrain:
		body = runTrain
	case wRead:
		body = runRead
	case wWrite:
		body = runWrite
	case wRestart:
		body = runRestart
	default:
		return fmt.Errorf("unknown workload (want one of %s)", strings.Join(workloads, ", "))
	}
	out := &outcome{values: make(map[string]float64)}
	if cfg.dry {
		out.attempted = 1
		return printResult(os.Stdout, cfg, out)
	}
	for _, b := range []string{"ehnad", "ehnad-mkstore"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			return fmt.Errorf("binary %s not found under -bin (bench/run.sh builds it): %w", b, err)
		}
	}

	sb, err := newSandbox()
	if err != nil {
		return err
	}
	defer sb.close()
	r := &run{cfg: cfg, sz: sizesFor(cfg.seconds, cfg.trace), sb: sb, ref: newReference(), phases: make(map[string]float64)}
	if cfg.trace {
		r.tr = newTracer()
	}

	start := time.Now()
	host0 := readHostCPU()
	if err := body(ctx, r, out); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	steal := stealShare(host0, readHostCPU())
	r.phase("total", start)

	env := r.environment(steal)
	if !cfg.trace {
		env["reference"] = map[string]any{
			"level_ms": r.ref.level(), "nominal_ms": refNominalMS, "samples": len(r.ref.samples),
			"raw": r.ref.normalize(out.values),
		}
	} else {
		out.set("host.steal_share", steal)
		out.set("host.nproc", float64(hostCPUs()))
		if err := r.tr.write(filepath.Join(cfg.root, "bench", "out"), cfg.workload, env); err != nil {
			return err
		}
	}
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "env %s\n", envJSON)
	for _, g := range out.gates {
		fmt.Fprintf(os.Stderr, "gate failed: %s\n", g)
	}
	return printResult(os.Stdout, cfg, out)
}

// printResult writes the result object: exactly the metrics the run's
// mode owes, each with its unit. A metric the run did not measure is an
// error on an end-to-end run; on a traced run it reads 0, the layer
// being off this workload's path.
func printResult(w io.Writer, cfg config, out *outcome) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric)
	add := func(d metricDef, required bool) error {
		v, ok := out.values[d.Name]
		if cfg.dry {
			v, ok = 1, true
		}
		if !ok && required {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		metrics[d.Name] = metric{v, d.Unit}
		return nil
	}
	if cfg.trace {
		for _, d := range perLayer {
			if err := add(d.metricDef, d.Workload == cfg.workload || d.Workload == ""); err != nil {
				return err
			}
		}
	} else {
		for _, d := range endToEnd {
			if err := add(d, true); err != nil {
				return err
			}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.correct(),
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// environment is the block recorded with every run: enough to tell two
// runs' conditions apart.
func (r *run) environment(steal float64) map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown" // a driver checkout is not a git repository
	if b, err := exec.Command("git", "-C", r.cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"workload":         r.cfg.workload,
		"commit":           commit,
		"seed":             r.cfg.seed,
		"seconds":          r.cfg.seconds,
		"traced":           r.cfg.trace,
		"nproc":            hostCPUs(),
		"gomaxprocs":       runtime.GOMAXPROCS(0), // 1: the harness and its children are bound to one CPU
		"go":               runtime.Version(),
		"kernel":           strings.TrimSpace(string(kernel)),
		"vecmath_backend":  vecmath.Backend(),
		"daemon_flags":     r.flags,
		"sizes":            r.sz.describe(),
		"phase_seconds":    r.phases,
		"segments":         r.segments,
		"host_steal_share": steal,
	}
}
