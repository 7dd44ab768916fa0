// Package ehna implements the paper's primary contribution: Embedding via
// Historical Neighborhoods Aggregation (Huang et al., ICDE 2020).
//
// For every edge formation (x, y, t) the model explains the event from the
// historical neighborhoods of both endpoints:
//
//  1. temporal random walks (internal/walk) collect the relevant nodes;
//  2. a node-level attention (Eq. 3) weights each node in a walk and a
//     stacked LSTM summarizes the walk into a vector h_r (Algorithm 1,
//     lines 1–4);
//  3. a walk-level attention (Eq. 4) weights the walk summaries and a
//     second stacked LSTM fuses them into H (lines 5–6);
//  4. the readout z = normalize(W·[H ‖ e_x]) (lines 7–8) feeds a
//     margin-based hinge loss over Euclidean distances with degree^0.75
//     negative sampling (Eqs. 5–7).
//
// The three ablations of Table VII are configuration switches:
// DisableAttention (EHNA-NA), Walk.Static (EHNA-RW) and SingleLevel
// (EHNA-SL).
package ehna

import (
	"fmt"
	"math/rand"
	"sync"

	"ehna/internal/ag"
	"ehna/internal/graph"
	"ehna/internal/nn"
	"ehna/internal/sample"
	"ehna/internal/tensor"
	"ehna/internal/walk"
)

// Config collects every hyperparameter of the model and trainer.
type Config struct {
	Dim        int                 // embedding and hidden dimensionality d
	LSTMLayers int                 // stacked-LSTM depth (paper: 2)
	Walk       walk.TemporalConfig // temporal random walk parameters

	Margin        float64 // safety margin m of the hinge loss (paper: 5)
	Negatives     int     // Q negative samples per positive edge (paper: 5)
	Bidirectional bool    // Eq. 7: sample negatives on both endpoints

	LR        float64 // Adam learning rate for network parameters
	EmbLR     float64 // SGD learning rate for the embedding table
	Epochs    int     // passes over the chronological edge stream
	BatchSize int     // edges per optimizer step (paper: 512)
	ClipNorm  float64 // global gradient-norm clip; 0 disables
	Seed      int64   // master RNG seed

	// Ablation switches (Table VII).
	DisableAttention bool // EHNA-NA: uniform attention at both levels
	SingleLevel      bool // EHNA-SL: one single-layer LSTM, no two-level aggregation

	// FallbackSamples caps the 1-hop/2-hop neighbors drawn by the
	// GraphSAGE-style fallback aggregation.
	FallbackSamples int

	// Workers parallelizes training within each mini-batch: each worker
	// builds tapes against a shadow replica (shared weights, private
	// gradients) and the gradients are merged before the optimizer step,
	// so the update is identical in expectation to serial training and
	// free of data races. 0 or 1 trains serially.
	Workers int
}

// DefaultConfig returns laptop-scale defaults that keep the paper's
// structural choices (2 LSTM layers, m=5, Q=5, k=10, ℓ=10).
func DefaultConfig() Config {
	return Config{
		Dim:             32,
		LSTMLayers:      2,
		Walk:            walk.DefaultTemporalConfig(),
		Margin:          5,
		Negatives:       5,
		LR:              1e-3,
		EmbLR:           0.05,
		Epochs:          1,
		BatchSize:       32,
		ClipNorm:        5,
		Seed:            1,
		FallbackSamples: 10,
	}
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	if c.Dim < 1 {
		return fmt.Errorf("ehna: Dim %d < 1", c.Dim)
	}
	if c.LSTMLayers < 1 {
		return fmt.Errorf("ehna: LSTMLayers %d < 1", c.LSTMLayers)
	}
	if err := c.Walk.Validate(); err != nil {
		return err
	}
	if c.Margin <= 0 {
		return fmt.Errorf("ehna: Margin %g must be positive", c.Margin)
	}
	if c.Negatives < 1 {
		return fmt.Errorf("ehna: Negatives %d < 1", c.Negatives)
	}
	if c.LR <= 0 || c.EmbLR <= 0 {
		return fmt.Errorf("ehna: learning rates must be positive (LR=%g EmbLR=%g)", c.LR, c.EmbLR)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("ehna: Epochs %d < 1", c.Epochs)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("ehna: BatchSize %d < 1", c.BatchSize)
	}
	if c.FallbackSamples < 1 {
		return fmt.Errorf("ehna: FallbackSamples %d < 1", c.FallbackSamples)
	}
	return nil
}

// Model is a trained (or training) EHNA model bound to one temporal graph.
type Model struct {
	cfg    Config
	g      *graph.Temporal
	emb    *nn.Embedding
	node   *nn.StackedLSTM // node-level aggregator (first level)
	walkL  *nn.StackedLSTM // walk-level aggregator (second level); nil if SingleLevel
	nNorm  *nn.Norm
	wNorm  *nn.Norm
	proj   *nn.Param // W ∈ R^{2d×d}: z = [H ‖ e]·W
	params nn.Params
	walker *walk.TemporalWalker
	neg    *sample.Negative
	opt    *nn.Adam
	rng    *rand.Rand

	steps    int64    // optimizer steps taken over the model's lifetime
	replicas []*Model // Workers > 1: one shadow per worker, built on first use
}

// NewModel validates cfg and initializes an untrained model over g. The
// graph must be built; timestamps should be normalized (NormalizeTimes) so
// the decay kernel of Eq. 1 is well-scaled.
func NewModel(g *graph.Temporal, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("ehna: empty graph")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	walker, err := walk.NewTemporalWalker(g, cfg.Walk)
	if err != nil {
		return nil, err
	}
	neg, err := sample.NewNegative(g)
	if err != nil {
		return nil, err
	}
	d := cfg.Dim
	m := &Model{
		cfg:    cfg,
		g:      g,
		emb:    nn.NewEmbedding(g.NumNodes(), d, rng),
		walker: walker,
		neg:    neg,
		opt:    nn.NewAdam(cfg.LR),
		rng:    rng,
	}
	if cfg.SingleLevel {
		// EHNA-SL: a single-layer LSTM over the flattened walk sequence.
		m.node = nn.NewStackedLSTM("ehna.single", d, d, 1, rng)
		m.nNorm = nn.NewNorm("ehna.singleNorm", d)
	} else {
		m.node = nn.NewStackedLSTM("ehna.node", d, d, cfg.LSTMLayers, rng)
		m.walkL = nn.NewStackedLSTM("ehna.walk", d, d, cfg.LSTMLayers, rng)
		m.nNorm = nn.NewNorm("ehna.nodeNorm", d)
		m.wNorm = nn.NewNorm("ehna.walkNorm", d)
	}
	m.proj = nn.NewParam("ehna.W", nn.XavierInit(2*d, d, rng))
	m.node.Register(&m.params)
	m.nNorm.Register(&m.params)
	if m.walkL != nil {
		m.walkL.Register(&m.params)
		m.wNorm.Register(&m.params)
	}
	m.params.Add(m.proj)
	return m, nil
}

// timeWeight is the stabilized reciprocal interaction-recency factor
// 1/(1+Σt) used by both attention levels. The +1 guards walks whose edges
// all carry normalized timestamp 0 and bounds the coefficient for very
// early edges; monotonicity in Σt — the quantity the paper's Eq. 3 relies
// on — is preserved.
func timeWeight(sumT float64) float64 { return 1 / (1 + sumT) }

// incidentTimeSumsInto writes, for each position i of the walk, the sum
// of timestamps of the walk's edges incident to the node occupying
// position i, aggregated over all occurrences of that node in the walk
// (the Σ_{(u,v) in r} t(u,v) term of Eq. 3). dst is reusable scratch;
// the result reuses its capacity. Walks are short (ℓ ≤ ~10), so the
// O(ℓ²) scan beats the map the previous implementation allocated per
// walk.
func incidentTimeSumsInto(dst []float64, w walk.Walk) []float64 {
	if cap(dst) < len(w.Nodes) {
		dst = make([]float64, len(w.Nodes))
	} else {
		dst = dst[:len(w.Nodes)]
	}
	for i, v := range w.Nodes {
		var s float64
		for j, t := range w.Times {
			if w.Nodes[j] == v || w.Nodes[j+1] == v {
				s += t
			}
		}
		dst[i] = s
	}
	return dst
}

// batch is the set of targets one tape aggregates together: the two
// endpoints of a training edge and its negatives, or a single node at
// inference. Targets are added in the order their walks and neighbor
// samples are drawn from the RNG; aggregate then runs all of them
// through each level of Algorithm 1 as one time-major batch (see
// ag.LSTMSeq), so a level is one tape node instead of one per walk and
// timestep.
type batch struct {
	targets []target
	walked  []int // node ids of the targets aggregated through their walks

	// Walks of the walked targets, target-major: with k walks of up to
	// ℓ nodes, entry (j·k+i)·ℓ+p describes position p of walk i of
	// walked[j], and entry j·k+i of lens and factor that walk.
	ids    []int     // node at the position; −1 beyond the walk's end
	coef   []float64 // its recency weight 1/(1+Σt), the Eq. 3 coefficient
	lens   []int     // nodes in the walk
	factor []float64 // the walk's Eq. 4 relevance factor (1/|r|)·Σ_v 1/(1+Σt)

	sums []float64 // incidentTimeSumsInto scratch
}

// target is one aggregated node. A node without a usable history is
// aggregated from sampled neighbors instead of walks (Section IV-D).
type target struct {
	id   int
	slot int   // index into batch.walked; −1 for the neighborhood fallback
	nbrs []int // fallback: sampled 1-hop and 2-hop neighbors
}

// addWalks draws the k temporal walks of x at tTarget and adds x as a
// walked target.
func (b *batch) addWalks(m *Model, x graph.NodeID, tTarget float64, rng *rand.Rand) {
	// Walk buffers are pooled: the walks are reduced to ids and weights
	// before this function returns, so the scratch can be recycled.
	sc := walk.GetScratch()
	defer walk.PutScratch(sc)
	for _, w := range m.walker.WalksScratch(sc, x, tTarget, rng) {
		b.sums = incidentTimeSumsInto(b.sums, w)
		var f float64
		for p := 0; p < m.cfg.Walk.WalkLen; p++ {
			if p < len(w.Nodes) {
				tw := timeWeight(b.sums[p])
				f += tw
				b.ids, b.coef = append(b.ids, int(w.Nodes[p])), append(b.coef, tw)
			} else {
				b.ids, b.coef = append(b.ids, -1), append(b.coef, 0)
			}
		}
		b.lens = append(b.lens, len(w.Nodes))
		b.factor = append(b.factor, f/float64(len(w.Nodes)))
	}
	b.targets = append(b.targets, target{id: int(x), slot: len(b.walked)})
	b.walked = append(b.walked, int(x))
}

// addFallback samples u's neighborhood and adds u as a fallback target.
func (b *batch) addFallback(m *Model, u graph.NodeID, rng *rand.Rand) {
	b.targets = append(b.targets, target{id: int(u), slot: -1, nbrs: m.sampleTwoHop(u, rng)})
}

// addNegative adds a negative sample u: through its walks when u has
// history at tTarget (the paper's rule), otherwise through the
// neighborhood-mean fallback.
func (b *batch) addNegative(m *Model, u graph.NodeID, tTarget float64, rng *rand.Rand) {
	if m.g.DegreeBefore(u, tTarget) > 0 {
		b.addWalks(m, u, tTarget, rng)
	} else {
		b.addFallback(m, u, rng)
	}
}

// Aggregate builds the aggregated embedding z_x (Algorithm 1) for target
// node x at target time tTarget on the given tape. The returned node is a
// 1×Dim L2-normalized row. Gradients flow into the embedding table and all
// network parameters when the tape is run backward.
func (m *Model) Aggregate(tp *ag.Tape, x graph.NodeID, tTarget float64, rng *rand.Rand) *ag.Node {
	var b batch
	b.addWalks(m, x, tTarget, rng)
	return m.aggregate(tp, &b)[0]
}

// AggregateFallback is the GraphSAGE-style aggregation for nodes without a
// usable historical neighborhood (Section IV-D): the mean embedding of
// sampled 1-hop and 2-hop neighbors replaces the walk-derived H.
func (m *Model) AggregateFallback(tp *ag.Tape, u graph.NodeID, rng *rand.Rand) *ag.Node {
	var b batch
	b.addFallback(m, u, rng)
	return m.aggregate(tp, &b)[0]
}

// aggregate records the aggregation of every target of b and returns
// their readouts z (1×Dim each) in the order the targets were added.
func (m *Model) aggregate(tp *ag.Tape, b *batch) []*ag.Node {
	zs := make([]*ag.Node, len(b.targets))
	var z *ag.Node
	if len(b.walked) > 0 {
		ex := m.emb.Lookup(tp, b.walked)
		if m.cfg.SingleLevel {
			z = m.readout(tp, m.singleLevel(tp, b), ex)
		} else {
			z = m.readout(tp, m.twoLevel(tp, b, ex), ex)
		}
	}
	for i, t := range b.targets {
		if t.slot >= 0 {
			zs[i] = tp.Row(z, t.slot)
			continue
		}
		eu := m.emb.Lookup(tp, []int{t.id})
		H := eu // isolated node: self-aggregation
		if len(t.nbrs) > 0 {
			H = tp.MeanRows(m.emb.Lookup(tp, t.nbrs))
		}
		zs[i] = m.readout(tp, H, eu)
	}
	return zs
}

// twoLevel runs both aggregation levels for the walked targets of b and
// returns H, one row per target. With nt targets of k walks each, the
// node level is a batch of k·nt sequences ordered walk-major (sequence
// i·nt+j is walk i of target j), so that its n×d result, read as k steps
// of nt sequences, already is the walk level's time-major input.
func (m *Model) twoLevel(tp *ag.Tape, b *batch, ex *ag.Node) *ag.Node {
	nt, k, ell := len(b.walked), m.cfg.Walk.NumWalks, m.cfg.Walk.WalkLen
	n := k * nt
	T := 0
	for _, l := range b.lens {
		T = max(T, l)
	}
	ids, coef := make([]int, T*n), make([]float64, T*n)
	lens, factor := make([]int, n), make([]float64, n)
	for j := 0; j < nt; j++ {
		for i := 0; i < k; i++ {
			r, src := i*nt+j, j*k+i
			lens[r], factor[r] = b.lens[src], b.factor[src]
			for p := 0; p < T; p++ {
				ids[p*n+r], coef[p*n+r] = b.ids[src*ell+p], b.coef[src*ell+p]
			}
		}
	}

	// First level: node attention + LSTM per walk (lines 1–4).
	x := m.emb.Lookup(tp, ids)
	if !m.cfg.DisableAttention {
		x = tp.Attend(ex, x, coef, lens, T)
	}
	h := tp.ReLU(m.nNorm.Forward(tp, m.node.ForwardBatch(tp, x, lens, T)))

	// Second level: walk attention + LSTM (lines 5–6).
	if !m.cfg.DisableAttention {
		h = tp.Attend(ex, h, factor, nil, k)
	}
	return m.wNorm.Forward(tp, m.walkL.ForwardBatch(tp, h, nil, k))
}

// singleLevel implements the EHNA-SL ablation: each target's walks are
// flattened into one sequence consumed by a single single-layer LSTM,
// with no attention and no second aggregation stage.
func (m *Model) singleLevel(tp *ag.Tape, b *batch) *ag.Node {
	nt, k, ell := len(b.walked), m.cfg.Walk.NumWalks, m.cfg.Walk.WalkLen
	lens := make([]int, nt)
	T := 0
	for j := range lens {
		for _, l := range b.lens[j*k : (j+1)*k] {
			lens[j] += l
		}
		T = max(T, lens[j])
	}
	ids := make([]int, T*nt)
	for j := 0; j < nt; j++ {
		p := 0
		for i := j * k; i < (j+1)*k; i++ {
			for _, id := range b.ids[i*ell : i*ell+b.lens[i]] {
				ids[p*nt+j] = id
				p++
			}
		}
		for ; p < T; p++ {
			ids[p*nt+j] = -1
		}
	}
	return m.nNorm.Forward(tp, m.node.ForwardBatch(tp, m.emb.Lookup(tp, ids), lens, T))
}

// readout applies lines 7–8 of Algorithm 1 to every row:
// z = normalize(W·[H ‖ e_x]).
func (m *Model) readout(tp *ag.Tape, H, ex *ag.Node) *ag.Node {
	return tp.L2NormalizeRows(tp.MatMul(tp.ConcatCols(H, ex), m.proj.Node(tp)))
}

// sampleTwoHop draws up to FallbackSamples 1-hop and FallbackSamples 2-hop
// neighbors of u, uniformly with replacement.
func (m *Model) sampleTwoHop(u graph.NodeID, rng *rand.Rand) []int {
	adj := m.g.Neighbors(u)
	if len(adj) == 0 {
		return nil
	}
	k := m.cfg.FallbackSamples
	ids := make([]int, 0, 2*k)
	for i := 0; i < k; i++ {
		n1 := adj[rng.Intn(len(adj))].To
		ids = append(ids, int(n1))
		adj2 := m.g.Neighbors(n1)
		if len(adj2) > 0 {
			ids = append(ids, int(adj2[rng.Intn(len(adj2))].To))
		}
	}
	return ids
}

// EdgeLoss builds the hinge loss of Eq. 6 (or Eq. 7 when Bidirectional)
// for a single positive edge on the tape and returns the scalar node. All
// walks, negatives and neighbor samples are drawn first, in the order the
// loss reads them, and the targets are then aggregated as one batch.
func (m *Model) EdgeLoss(tp *ag.Tape, e graph.Edge, rng *rand.Rand) *ag.Node {
	negs := m.cfg.Negatives
	if m.cfg.Bidirectional {
		negs *= 2
	}
	var b batch
	b.addWalks(m, e.U, e.Time, rng)
	b.addWalks(m, e.V, e.Time, rng)
	for q := 0; q < negs; q++ {
		b.addNegative(m, m.neg.Draw(rng, e.U, e.V), e.Time, rng)
	}
	z := m.aggregate(tp, &b)

	pos := tp.SqDist(z[0], z[1])
	var loss *ag.Node
	for q, zu := range z[2:] {
		anchor := z[0]
		if q >= m.cfg.Negatives {
			anchor = z[1] // Eq. 7: the second half is sampled against y
		}
		h := tp.Hinge(m.cfg.Margin, pos, tp.SqDist(anchor, zu))
		if loss == nil {
			loss = h
		} else {
			loss = tp.Add(loss, h)
		}
	}
	return loss
}

// shadow returns a worker replica of the model: layer weights and the
// embedding table are shared with m, gradients are private to the replica.
// The replica must only be used for Aggregate/EdgeLoss, never optimized.
func (m *Model) shadow() *Model {
	w := &Model{
		cfg:    m.cfg,
		g:      m.g,
		emb:    m.emb.Shadow(),
		node:   m.node.Shadow(),
		nNorm:  m.nNorm.Shadow(),
		proj:   m.proj.Shadow(),
		walker: m.walker,
		neg:    m.neg,
	}
	if m.walkL != nil {
		w.walkL = m.walkL.Shadow()
		w.wNorm = m.wNorm.Shadow()
	}
	// Register in the SAME order as NewModel so MergeGradsInto can match
	// parameters position-wise.
	w.node.Register(&w.params)
	w.nNorm.Register(&w.params)
	if w.walkL != nil {
		w.walkL.Register(&w.params)
		w.wNorm.Register(&w.params)
	}
	w.params.Add(w.proj)
	return w
}

// trainEdge records e's loss on tp, back-propagates it scaled by inv (the
// reciprocal batch size) and returns its value.
func (m *Model) trainEdge(tp *ag.Tape, e graph.Edge, inv float64, rng *rand.Rand) float64 {
	tp.Reset()
	loss := m.EdgeLoss(tp, e, rng)
	tp.Backward(tp.Scale(loss, inv))
	return ag.Value(loss)
}

// TrainEpoch performs one pass over the chronological edge stream in
// mini-batches and returns the mean per-edge loss. With cfg.Workers > 1
// each batch is processed by shadow replicas in parallel and their
// gradients merged before the optimizer step.
func (m *Model) TrainEpoch() float64 {
	edges := m.g.Edges()
	workers := max(m.cfg.Workers, 1)
	// One arena per worker for the whole epoch, rewound for every edge
	// and released with the epoch.
	tapes := make([]*ag.Tape, workers)
	for w := range tapes {
		tapes[w] = ag.New()
	}
	var total float64
	for lo := 0; lo < len(edges); lo += m.cfg.BatchSize {
		mb := edges[lo:min(lo+m.cfg.BatchSize, len(edges))] // the mini-batch
		m.params.ZeroGrad()
		m.emb.ZeroGrad()
		inv := 1 / float64(len(mb))

		if workers == 1 || len(mb) < 2*workers {
			for _, e := range mb {
				total += m.trainEdge(tapes[0], e, inv, m.rng)
			}
		} else {
			for len(m.replicas) < workers {
				m.replicas = append(m.replicas, m.shadow())
			}
			losses := make([]float64, workers)
			var wg sync.WaitGroup
			chunk := (len(mb) + workers - 1) / workers
			for w := 0; w*chunk < len(mb); w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// One stream per (optimizer step, worker) over the
					// model's lifetime: no two share a seed, within an
					// epoch or across epochs.
					rng := rand.New(rand.NewSource(m.cfg.Seed + 3 + m.steps*int64(workers) + int64(w)))
					for _, e := range mb[w*chunk : min((w+1)*chunk, len(mb))] {
						losses[w] += m.replicas[w].trainEdge(tapes[w], e, inv, rng)
					}
				}(w)
			}
			wg.Wait()
			for w, rep := range m.replicas {
				nn.MergeGradsInto(&m.params, &rep.params)
				rep.params.ZeroGrad()
				rep.emb.MergeGradsInto(m.emb)
				total += losses[w]
			}
		}
		if m.cfg.ClipNorm > 0 {
			m.params.ClipGradNorm(m.cfg.ClipNorm)
		}
		m.opt.Step(&m.params)
		m.emb.Step(m.cfg.EmbLR)
		m.steps++
	}
	if len(edges) == 0 {
		return 0
	}
	return total / float64(len(edges))
}

// Train runs cfg.Epochs training epochs and returns the per-epoch losses.
func (m *Model) Train() []float64 {
	losses := make([]float64, m.cfg.Epochs)
	for i := range losses {
		losses[i] = m.TrainEpoch()
	}
	return losses
}

// EvalLoss computes the mean hinge loss over the given edges WITHOUT
// updating any parameters — a validation metric for held-out (future)
// edges. The walks and negative draws use a fixed seed so repeated calls
// are comparable.
func (m *Model) EvalLoss(edges []graph.Edge) float64 {
	if len(edges) == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed + 104729))
	tp := ag.NewNoGrad()
	var total float64
	for _, e := range edges {
		tp.Reset()
		total += ag.Value(m.EdgeLoss(tp, e, rng))
	}
	return total / float64(len(edges))
}

// InferAll runs the paper's final aggregation pass: each node is aggregated
// at the time of its most recent edge and the readout becomes its final
// embedding (e_x = z_x). Nodes without any edge fall back to the
// neighborhood-mean aggregation. The result is a NumNodes×Dim matrix.
func (m *Model) InferAll() *tensor.Matrix {
	out := tensor.New(m.g.NumNodes(), m.cfg.Dim)
	rng := rand.New(rand.NewSource(m.cfg.Seed + 7919))
	tp := ag.NewNoGrad()
	for v := 0; v < m.g.NumNodes(); v++ {
		id := graph.NodeID(v)
		tp.Reset()
		var z *ag.Node
		if adj := m.g.Neighbors(id); len(adj) > 0 {
			tRecent := adj[len(adj)-1].Time
			z = m.Aggregate(tp, id, tRecent, rng)
		} else {
			z = m.AggregateFallback(tp, id, rng)
		}
		out.SetRow(v, z.Value.Data)
	}
	return out
}
