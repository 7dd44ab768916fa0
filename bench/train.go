package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"ehna/internal/ag"
	"ehna/internal/datagen"
	"ehna/internal/ehna"
	"ehna/internal/graph"
	"ehna/internal/sample"
	"ehna/internal/walk"
)

// train_epoch: the library path `ehna train` takes, in process —
// generate the Digg analogue, build a model at the default config and
// train it serially, one TrainEpoch call per segment. One op is one
// trained edge; the "request" whose latency is reported is one epoch.

// trainGraph generates the Digg analogue (datagen.Social, what
// datagen.Generate(Digg) calls) with exactly edges edges, so that an
// epoch is the same amount of work on every seed: the generator drops
// duplicate friendships, so it is asked for more and the chronologically
// first edges are kept. Digg's own 6 edges per node would leave a graph
// this small almost complete; two edges per node, floored at 20 nodes,
// keeps it sparse enough to have a history worth walking.
func trainGraph(edges int, seed int64) (*graph.Temporal, error) {
	cfg := datagen.DefaultSocialConfig()
	cfg.Nodes, cfg.Seed = max(20, edges/2), seed
	for cfg.Edges = 2 * edges; ; cfg.Edges *= 2 {
		g, err := datagen.Social(cfg)
		if err != nil {
			return nil, err
		}
		if g.NumEdges() >= edges {
			kept := 0
			return g.FilterEdges(func(graph.Edge) bool { kept++; return kept <= edges }), nil
		}
	}
}

// trainSetUp generates the graph, builds the model and takes the
// baseline loss over every edge: what a training job pays before its
// first step.
func trainSetUp(r *run) (*graph.Temporal, *ehna.Model, float64, error) {
	g, err := trainGraph(r.sz.trainEdges, r.cfg.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	cfg := ehna.DefaultConfig()
	cfg.Seed = r.cfg.seed
	m, err := ehna.NewModel(g, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	return g, m, m.EvalLoss(g.Edges()), nil
}

// divergedAt fails a training run whose loss over every edge ends this
// many times the untrained baseline or higher.
const divergedAt = 1.25

func selfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return tvSec(ru.Utime) + tvSec(ru.Stime), nil
}

func runTrain(ctx context.Context, r *run, out *outcome) error {
	setupStart := time.Now()
	var (
		g      *graph.Temporal
		m      *ehna.Model
		before float64
		times  []float64
	)
	for i := 0; i < r.sz.setups; i++ {
		r.sampleReference()
		start := time.Now()
		var err error
		if g, m, before, err = trainSetUp(r); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	out.set("setup_s", median(times))
	r.phase("setup", setupStart)

	windowStart := time.Now()
	edges := g.NumEdges()
	m.TrainEpoch() // warm-up epoch: heap and pools reach steady state
	// One segment per epoch; the one "request" a segment holds is the
	// epoch itself, so lat_p50_ms and lat_p90_ms are both the quietest
	// epoch's time.
	win := newWindow(r.sz.trainEpochs, r.sz.trainEpochs, selfCPUSeconds, r.sampleReference)
	var rss []float64
	finite := true
	origin := time.Now()
	for e := 0; e < r.sz.trainEpochs; e++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := win.begin(e); err != nil {
			return err
		}
		t0 := time.Since(origin)
		loss := m.TrainEpoch()
		win.add(opSample{int64(t0), int64(time.Since(origin)), true})
		out.attempted += edges
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			out.fail(edges)
			finite = false
		}
		mb, err := residentMB(syscall.Getpid())
		if err != nil {
			return err
		}
		rss = append(rss, mb)
	}
	w, err := win.finish(float64(edges))
	if err != nil {
		return err
	}
	r.phase("window", windowStart)
	r.setWindow(out, w)
	r.segments["rss_mb"] = rss
	// The resident set at each epoch's end, not the process's high-water
	// mark: this process is a garbage-collected heap, whose resident set
	// saws between 40 and 65 MB with the collector's cycle, and one late
	// cycle during set-up doubles VmHWM on one run in eight. The median of
	// the ten readings spreads 4–6 % across seeds; their maximum and a
	// VmHWM reset at the window's start (clear_refs) spread 5 % and 10 %.
	out.set("rss_mb", median(rss))

	// Quality is the share of three gates that held: every epoch's loss
	// finite, the loss over every edge not diverged from the untrained
	// baseline, and every embedding the model would export finite. The
	// loss ratio itself is deterministic per seed but ranges 1.0–1.5
	// across seeds on a graph this small — on one seed in five ten epochs
	// do not lower it at all — which is too wide for the bound quality
	// shares with the serving workloads' recall and too weak for a
	// pass/fail line at 1; it is the per-layer metric ehna.loss_ratio.
	held := 0
	if finite {
		held++
	} else {
		out.gate("a training epoch returned a non-finite loss")
	}
	after := m.EvalLoss(g.Edges())
	if after < before*divergedAt {
		held++
	} else {
		out.gate("loss diverged: %.6f before, %.6f after", before, after)
	}
	inferStart := time.Now()
	emb := m.InferAll()
	inferMS := time.Since(inferStart).Seconds() * 1000
	held++
	for _, v := range emb.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			held--
			out.gate("non-finite embedding after training")
			break
		}
	}
	out.set("quality", float64(held)/3)
	if r.tr != nil {
		out.set("ehna.infer_all_ms", inferMS)
		out.set("ehna.loss_ratio", before/after)
		return traceTrain(r, out, g)
	}
	return nil
}

// traceTrain replays one epoch's edges against a fresh model of the
// same seed, one span around every call into a layer's public function.
func traceTrain(r *run, out *outcome, g *graph.Temporal) error {
	defer r.phase("trace", time.Now())
	tr := r.tr
	cfg := ehna.DefaultConfig()
	cfg.Seed = r.cfg.seed
	m, err := ehna.NewModel(g, cfg)
	if err != nil {
		return err
	}
	walker, err := walk.NewTemporalWalker(g, cfg.Walk)
	if err != nil {
		return err
	}
	neg, err := sample.NewNegative(g)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	scratch := walk.GetScratch()
	defer walk.PutScratch(scratch)

	const drawsPerSpan = 256 // one draw is tens of ns: time them in bulk
	var walkLen, walkCount int
	edges := g.Edges()
	for i, e := range edges {
		op := tr.begin("edge", -1, i)
		for _, x := range []graph.NodeID{e.U, e.V} {
			s := tr.begin("walk.WalksScratch", op, i)
			ws := walker.WalksScratch(scratch, x, e.Time, rng)
			tr.end(s)
			for _, w := range ws {
				walkLen += w.Len()
				walkCount++
			}
		}
		s := tr.begin("sample.Negative.Draw", op, i)
		for j := 0; j < drawsPerSpan; j++ {
			neg.Draw(rng, e.U, e.V)
		}
		tr.end(s)

		s = tr.begin("ehna.Model.Aggregate", op, i)
		m.Aggregate(ag.New(), e.U, e.Time, rng)
		tr.end(s)

		tp := ag.New()
		s = tr.begin("ehna.Model.EdgeLoss", op, i)
		loss := m.EdgeLoss(tp, e, rng)
		tr.end(s)
		s = tr.begin("ag.Tape.Backward", op, i)
		tp.Backward(loss)
		tr.end(s)
		tr.end(op)
	}
	fwd, bwd := tr.durations("ehna.Model.EdgeLoss"), tr.durations("ag.Tape.Backward")
	out.set("walk.walks_us", median(tr.durations("walk.WalksScratch"))/1e3)
	out.set("walk.mean_len", float64(walkLen)/float64(walkCount))
	out.set("sample.negative_ns", median(tr.durations("sample.Negative.Draw"))/drawsPerSpan)
	out.set("ehna.aggregate_us", median(tr.durations("ehna.Model.Aggregate"))/1e3)
	out.set("ehna.edgeloss_fwd_us", median(fwd)/1e3)
	out.set("ag.backward_us", median(bwd)/1e3)

	// One whole epoch, for what the per-edge spans leave out (optimizer
	// step, gradient clipping) and for the allocator's share.
	gcSamples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	readGC := func() (gc, user float64) {
		metrics.Read(gcSamples)
		return gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64()
	}
	m.TrainEpoch() // warm-up
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, user0 := readGC()
	s := tr.begin("ehna.Model.TrainEpoch", -1, len(edges))
	m.TrainEpoch()
	tr.end(s)
	runtime.ReadMemStats(&ms1)
	gc1, user1 := readGC()
	epochNS := tr.durations("ehna.Model.TrainEpoch")[0]
	n := float64(len(edges))
	// What an epoch takes beyond its edges' forward and backward passes.
	// The share is a few percent, the size of the clock noise between the
	// replay and the epoch, so it can read slightly below zero.
	out.set("ehna.optimizer_share", 1-(sum(fwd)+sum(bwd))/epochNS)
	out.set("ehna.allocs_per_edge", float64(ms1.Mallocs-ms0.Mallocs)/n)
	out.set("ehna.alloc_kb_per_edge", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/n)
	if busy := (gc1 - gc0) + (user1 - user0); busy > 0 {
		out.set("ehna.gc_cpu_share", (gc1-gc0)/busy)
	} else {
		return fmt.Errorf("runtime reported no CPU time over an epoch")
	}
	return nil
}
