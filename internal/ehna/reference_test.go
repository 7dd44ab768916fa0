package ehna

import (
	"math"
	"math/rand"
	"testing"

	"ehna/internal/ag"
	"ehna/internal/graph"
	"ehna/internal/nn"
	"ehna/internal/tensor"
	"ehna/internal/walk"
)

// The reference below is the aggregation this package recorded before
// it was batched: one target at a time, one walk at a time, one LSTM
// timestep at a time, every attention score its own scalar node, all of
// it from ag's primitive operators. It consumes the RNG exactly as
// EdgeLoss does, so a model and seed give it and the batched path the
// same walks and negatives; the tests here hold the batched path to its
// values and gradients.

// The batched path's LSTM (ag.LSTMSeq) computes in float32 over the
// float64 weights; the reference computes in float64 throughout. The
// tolerances below are relative to max(1, |reference|) and derive from
// the largest differences measured over the variants and targets
// here, on the AVX2 and the portable kernels alike: 1.3e-7 on a
// readout, 1.9e-7 on a loss, 1.8e-5 on a gradient — each bound is about
// five times that.
const (
	refValueTol = 1e-6
	refGradTol  = 1e-4
)

// refNear reports whether got is within tol of the reference want,
// relative to max(1, |want|).
func refNear(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// refLSTM runs seq (T×in, batch 1) through s one timestep at a time and
// returns the top layer's final hidden state.
func refLSTM(tp *ag.Tape, s *nn.StackedLSTM, seq *ag.Node) *ag.Node {
	inputs := make([]*ag.Node, seq.Value.Rows)
	for t := range inputs {
		inputs[t] = tp.Row(seq, t)
	}
	for _, cell := range s.Cells {
		w := cell.Weights(tp)
		h := tp.Const(tensor.New(1, cell.Hidden))
		c := tp.Const(tensor.New(1, cell.Hidden))
		outs := make([]*ag.Node, len(inputs))
		for t, x := range inputs {
			gate := func(W, U, B *ag.Node) *ag.Node {
				return tp.AddRowBroadcast(tp.Add(tp.MatMul(x, W), tp.MatMul(h, U)), B)
			}
			i := tp.Sigmoid(gate(w.Wi, w.Ui, w.Bi))
			f := tp.Sigmoid(gate(w.Wf, w.Uf, w.Bf))
			o := tp.Sigmoid(gate(w.Wo, w.Uo, w.Bo))
			g := tp.Tanh(gate(w.Wg, w.Ug, w.Bg))
			c = tp.Add(tp.Mul(f, c), tp.Mul(i, g))
			h = tp.Mul(o, tp.Tanh(c))
			outs[t] = h
		}
		inputs = outs
	}
	return inputs[len(inputs)-1]
}

func nodeInts(ns []graph.NodeID) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = int(n)
	}
	return out
}

// refAttention weights the rows of items by softmax(−coef_i·‖q − item_i‖²).
func refAttention(tp *ag.Tape, q, items *ag.Node, coef []float64) *ag.Node {
	scores := make([]*ag.Node, len(coef))
	for i, c := range coef {
		scores[i] = tp.Scale(tp.SqDist(q, tp.Row(items, i)), -c)
	}
	return tp.RowScale(items, tp.SoftmaxRow(tp.ConcatScalars(scores)))
}

func refReadout(m *Model, tp *ag.Tape, H, ex *ag.Node) *ag.Node {
	return tp.L2NormalizeRows(tp.MatMul(tp.ConcatCols(H, ex), m.proj.Node(tp)))
}

func refAggregate(m *Model, tp *ag.Tape, x graph.NodeID, tTarget float64, rng *rand.Rand) *ag.Node {
	walks := m.walker.WalksScratch(new(walk.Scratch), x, tTarget, rng)
	ex := m.emb.Lookup(tp, []int{int(x)})
	if m.cfg.SingleLevel {
		var ids []int
		for _, w := range walks {
			ids = append(ids, nodeInts(w.Nodes)...)
		}
		return refReadout(m, tp, m.nNorm.Forward(tp, refLSTM(tp, m.node, m.emb.Lookup(tp, ids))), ex)
	}
	hs := make([]*ag.Node, len(walks))
	factors := make([]float64, len(walks))
	for i, w := range walks {
		seq := m.emb.Lookup(tp, nodeInts(w.Nodes))
		sums := incidentTimeSumsInto(nil, w)
		coef := make([]float64, len(sums))
		for j, s := range sums {
			coef[j] = timeWeight(s)
			factors[i] += coef[j]
		}
		factors[i] /= float64(len(w.Nodes))
		if !m.cfg.DisableAttention {
			seq = refAttention(tp, ex, seq, coef)
		}
		hs[i] = tp.ReLU(m.nNorm.Forward(tp, refLSTM(tp, m.node, seq)))
	}
	stacked := tp.StackRows(hs)
	if !m.cfg.DisableAttention {
		stacked = refAttention(tp, ex, stacked, factors)
	}
	return refReadout(m, tp, m.wNorm.Forward(tp, refLSTM(tp, m.walkL, stacked)), ex)
}

func refFallback(m *Model, tp *ag.Tape, u graph.NodeID, rng *rand.Rand) *ag.Node {
	eu := m.emb.Lookup(tp, []int{int(u)})
	H := eu
	if ids := m.sampleTwoHop(u, rng); len(ids) > 0 {
		H = tp.MeanRows(m.emb.Lookup(tp, ids))
	}
	return refReadout(m, tp, H, eu)
}

func refEdgeLoss(m *Model, tp *ag.Tape, e graph.Edge, rng *rand.Rand) *ag.Node {
	zx := refAggregate(m, tp, e.U, e.Time, rng)
	zy := refAggregate(m, tp, e.V, e.Time, rng)
	pos := tp.SqDist(zx, zy)
	var loss *ag.Node
	hinge := func(anchor *ag.Node) {
		u := m.neg.Draw(rng, e.U, e.V)
		var zu *ag.Node
		if m.g.DegreeBefore(u, e.Time) > 0 {
			zu = refAggregate(m, tp, u, e.Time, rng)
		} else {
			zu = refFallback(m, tp, u, rng)
		}
		h := tp.Hinge(m.cfg.Margin, pos, tp.SqDist(anchor, zu))
		if loss == nil {
			loss = h
		} else {
			loss = tp.Add(loss, h)
		}
	}
	for q := 0; q < m.cfg.Negatives; q++ {
		hinge(zx)
	}
	if m.cfg.Bidirectional {
		for q := 0; q < m.cfg.Negatives; q++ {
			hinge(zy)
		}
	}
	return loss
}

// raggedGraph is a temporal graph whose nodes gain history at very
// different times: a chain that grows one node per step, a hub, a pair
// that meets late and two nodes that only ever receive one edge at the
// very end, so that an edge in the middle of the stream sees negatives
// with and without history.
func raggedGraph(t *testing.T) *graph.Temporal {
	t.Helper()
	const n = 14
	g := graph.NewTemporal(n)
	add := func(u, v int, ts float64) {
		if err := g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1, ts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < 10; i++ {
		add(i, i+1, 0.05+0.05*float64(i))
	}
	for i := 2; i < 10; i += 2 {
		add(0, i, 0.07+0.06*float64(i))
	}
	add(3, 7, 0.58)
	add(1, 8, 0.62)
	add(10, 11, 0.66)
	add(4, 9, 0.7)
	add(2, 6, 0.74)
	add(12, 5, 0.95)
	add(13, 1, 0.97)
	g.Build()
	return g
}

func referenceConfig() Config {
	cfg := DefaultConfig()
	cfg.Dim = 6
	cfg.Walk = walk.TemporalConfig{P: 1, Q: 1, NumWalks: 3, WalkLen: 5}
	cfg.FallbackSamples = 3
	return cfg
}

// grads is a copy of every gradient a backward pass left on the model.
type grads struct {
	params []*tensor.Matrix
	rows   map[int][]float64
}

// runLoss zeroes the model's gradients, records build's scalar on a
// fresh tape, back-propagates it and returns its value and the
// gradients.
func runLoss(m *Model, build func(tp *ag.Tape) *ag.Node) (float64, grads) {
	m.params.ZeroGrad()
	m.emb.ZeroGrad()
	tp := ag.New()
	loss := build(tp)
	tp.Backward(loss)
	g := grads{rows: map[int][]float64{}}
	for _, p := range m.params.List() {
		g.params = append(g.params, p.G.Clone())
	}
	for id := 0; id < m.emb.Len(); id++ {
		if row := m.emb.RowGrad(id); row != nil {
			g.rows[id] = append([]float64(nil), row...)
		}
	}
	return ag.Value(loss), g
}

func assertSameGrads(t *testing.T, m *Model, got, want grads) {
	t.Helper()
	for i, p := range m.params.List() {
		for j, w := range want.params[i].Data {
			if g := got.params[i].Data[j]; !refNear(g, w, refGradTol) {
				t.Fatalf("gradient of %s elem %d: %g, reference %g", p.Name, j, g, w)
			}
		}
		if p == m.proj && tensor.L2NormVec(want.params[i].Data) == 0 {
			t.Fatal("reference gradient of the readout is zero: the comparison is vacuous")
		}
	}
	if len(got.rows) != len(want.rows) {
		t.Fatalf("gradient reached %d embedding rows, reference %d", len(got.rows), len(want.rows))
	}
	for id, w := range want.rows {
		g, ok := got.rows[id]
		if !ok {
			t.Fatalf("embedding row %d received no gradient", id)
		}
		for j := range w {
			if !refNear(g[j], w[j], refGradTol) {
				t.Fatalf("embedding row %d elem %d: %g, reference %g", id, j, g[j], w[j])
			}
		}
	}
}

var referenceVariants = map[string]func(*Config){
	"two-level":        func(*Config) {},
	"SingleLevel":      func(c *Config) { c.SingleLevel = true },
	"DisableAttention": func(c *Config) { c.DisableAttention = true },
	"Bidirectional":    func(c *Config) { c.Bidirectional = true },
}

// Walk lengths: a temporal walk may step back along the edge it came by,
// so once it has left its source it always runs to the full ℓ nodes; a
// walk is short only when its source has no edge up to the target time,
// and then it is the bare source. A batch is therefore ragged between 1
// and ℓ. Lengths in between are covered where they can be built, at the
// operator (ag.TestLSTMSeqMatchesUnfused) and the layer
// (nn.TestStackedLSTMBatchMatchesPerSequence).

// TestAggregateMatchesPerWalkReference compares one target's batched
// aggregation with the per-walk reference, for a target with full
// walks and for one whose walks are the bare source.
func TestAggregateMatchesPerWalkReference(t *testing.T) {
	g := raggedGraph(t)
	for name, mut := range referenceVariants {
		cfg := referenceConfig()
		mut(&cfg)
		m, err := NewModel(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		goal := tensor.Randn(1, cfg.Dim, 1, rand.New(rand.NewSource(8)))
		for x, wantLen := range map[graph.NodeID]int{6: cfg.Walk.WalkLen, 12: 1} {
			const at = 0.8
			var b batch
			b.addWalks(m, x, at, rand.New(rand.NewSource(21)))
			if lo, hi := minMax(b.lens); lo != wantLen || hi != wantLen {
				t.Fatalf("%s: walks of node %d have %d..%d nodes, want %d", name, x, lo, hi, wantLen)
			}
			var z, zr *tensor.Matrix
			v, gr := runLoss(m, func(tp *ag.Tape) *ag.Node {
				n := m.Aggregate(tp, x, at, rand.New(rand.NewSource(21)))
				z = n.Value.Clone()
				return tp.SqDist(n, tp.Const(goal))
			})
			vr, grr := runLoss(m, func(tp *ag.Tape) *ag.Node {
				n := refAggregate(m, tp, x, at, rand.New(rand.NewSource(21)))
				zr = n.Value.Clone()
				return tp.SqDist(n, tp.Const(goal))
			})
			if !tensor.Equal(z, zr, refValueTol) || !refNear(v, vr, refValueTol) {
				t.Fatalf("%s: node %d: z %v, reference %v", name, x, z, zr)
			}
			assertSameGrads(t, m, gr, grr)
		}
	}
}

func minMax(v []int) (lo, hi int) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// TestRaggedBatchMatchesPerTargetReference aggregates, as one batch, a
// target with full walks, a target whose walks are the bare source and
// a fallback target in between them, and compares every readout and
// all gradients with the reference that aggregates them one by one.
func TestRaggedBatchMatchesPerTargetReference(t *testing.T) {
	g := raggedGraph(t)
	const at = 0.8
	for name, mut := range referenceVariants {
		cfg := referenceConfig()
		mut(&cfg)
		m, err := NewModel(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		goals := tensor.Randn(4, cfg.Dim, 1, rand.New(rand.NewSource(9)))
		// sum records Σ_i ‖z_i − goal_i‖².
		sum := func(tp *ag.Tape, zs []*ag.Node) *ag.Node {
			var loss *ag.Node
			for i, z := range zs {
				d := tp.SqDist(z, tp.Row(tp.Const(goals), i))
				if loss == nil {
					loss = d
				} else {
					loss = tp.Add(loss, d)
				}
			}
			return loss
		}
		v, gr := runLoss(m, func(tp *ag.Tape) *ag.Node {
			rng := rand.New(rand.NewSource(5))
			var b batch
			b.addWalks(m, 6, at, rng)
			b.addFallback(m, 3, rng)
			b.addWalks(m, 13, at, rng)
			b.addWalks(m, 2, at, rng)
			if lo, hi := minMax(b.lens); lo != 1 || hi != cfg.Walk.WalkLen {
				t.Fatalf("%s: walk lengths %d..%d, want 1..%d", name, lo, hi, cfg.Walk.WalkLen)
			}
			return sum(tp, m.aggregate(tp, &b))
		})
		vr, grr := runLoss(m, func(tp *ag.Tape) *ag.Node {
			rng := rand.New(rand.NewSource(5))
			return sum(tp, []*ag.Node{
				refAggregate(m, tp, 6, at, rng),
				refFallback(m, tp, 3, rng),
				refAggregate(m, tp, 13, at, rng),
				refAggregate(m, tp, 2, at, rng),
			})
		})
		if !refNear(v, vr, refValueTol) {
			t.Fatalf("%s: batch loss %.15g, reference %.15g", name, v, vr)
		}
		assertSameGrads(t, m, gr, grr)
	}
}

// TestEdgeLossMatchesPerWalkReference compares a whole edge — both
// endpoints and all negatives in one batch — against the reference that
// aggregates them one after the other, on an edge one of whose
// negatives is history-less and takes the neighborhood fallback inside
// the same batch.
func TestEdgeLossMatchesPerWalkReference(t *testing.T) {
	g := raggedGraph(t)
	for name, mut := range referenceVariants {
		cfg := referenceConfig()
		mut(&cfg)
		m, err := NewModel(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, seed := edgeWithFallbackNegative(t, m)
		v, gr := runLoss(m, func(tp *ag.Tape) *ag.Node { return m.EdgeLoss(tp, e, rand.New(rand.NewSource(seed))) })
		vr, grr := runLoss(m, func(tp *ag.Tape) *ag.Node { return refEdgeLoss(m, tp, e, rand.New(rand.NewSource(seed))) })
		if !refNear(v, vr, refValueTol) || v == 0 {
			t.Fatalf("%s: loss %.15g, reference %.15g", name, v, vr)
		}
		assertSameGrads(t, m, gr, grr)
	}
}

// edgeWithFallbackNegative searches the edge stream and a few seeds for
// an edge whose negatives are some walked and some history-less.
func edgeWithFallbackNegative(t *testing.T, m *Model) (graph.Edge, int64) {
	t.Helper()
	for _, e := range m.g.Edges() {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var b batch
			b.addWalks(m, e.U, e.Time, rng)
			b.addWalks(m, e.V, e.Time, rng)
			for q := 0; q < m.cfg.Negatives; q++ {
				b.addNegative(m, m.neg.Draw(rng, e.U, e.V), e.Time, rng)
			}
			if len(b.walked) > 2 && len(b.walked) < len(b.targets) {
				return e, seed
			}
		}
	}
	t.Fatal("no edge of the test graph has both a walked and a history-less negative")
	return graph.Edge{}, 0
}

// TestFirstEpochMatchesParent pins the RNG draw order: the losses below
// were printed by the commit before the aggregation was batched (per
// walk, per timestep, fused LSTMStep) on twoCommunityGraph at
// smallConfig — three edges read through the model's own RNG in stream
// order, then, on a fresh model, the mean loss of the first two epochs
// and the loss over every edge after them. Any change to which walks or
// negatives are drawn, or in what order, moves them in the first digit;
// a change of summation order moves them in the fifteenth, and the
// float32 LSTM in the seventh: it lies at most 3.5e-7 relative from
// them (portable kernels; 1.9e-7 on AVX2), and firstEpochTol holds it
// within about six times that. The per-walk reference, float64
// throughout like the trainer that printed them, must reproduce the
// edge losses to 1e-9.
func TestFirstEpochMatchesParent(t *testing.T) {
	pins := map[string]struct {
		edges  [3]float64
		epochs [2]float64
		eval   float64
	}{
		"two-level":        {[3]float64{14.51585420412048, 17.31356462423221, 28.81967191471983}, [2]float64{23.632518818321664, 21.91443972593747}, 19.110812397982038},
		"SingleLevel":      {[3]float64{20.349048995175878, 16.374610888407272, 25.042463210476569}, [2]float64{21.26298683656541, 15.250276211743941}, 15.533182544495141},
		"DisableAttention": {[3]float64{13.420601307633547, 17.560835136889263, 29.093850212164039}, [2]float64{20.507157729400884, 17.92456353046127}, 17.227418047736343},
		"Bidirectional":    {[3]float64{31.166810590206428, 38.630642034346643, 54.063058446624311}, [2]float64{49.622125425142571, 45.775620031085886}, 39.29766771921647},
	}
	const firstEpochTol = 2e-6
	near := func(got, want float64) bool { return math.Abs(got-want) <= firstEpochTol*want }
	refExact := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*want }
	g := twoCommunityGraph(t)
	for name, pin := range pins {
		cfg := smallConfig()
		referenceVariants[name](&cfg)
		build := func() *Model {
			m, err := NewModel(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m, ref := build(), build()
		for i, idx := range []int{0, 10, 20} {
			e := g.Edges()[idx]
			if v := ag.Value(m.EdgeLoss(ag.New(), e, m.rng)); !near(v, pin.edges[i]) {
				t.Fatalf("%s: edge %d loss %.17g, parent %.17g", name, idx, v, pin.edges[i])
			}
			if v := ag.Value(refEdgeLoss(ref, ag.New(), e, ref.rng)); !refExact(v, pin.edges[i]) {
				t.Fatalf("%s: edge %d reference loss %.17g, parent %.17g", name, idx, v, pin.edges[i])
			}
		}
		m = build()
		for i, want := range pin.epochs {
			if v := m.TrainEpoch(); !near(v, want) {
				t.Fatalf("%s: epoch %d loss %.17g, parent %.17g", name, i, v, want)
			}
		}
		if v := m.EvalLoss(g.Edges()); !near(v, pin.eval) {
			t.Fatalf("%s: loss after two epochs %.17g, parent %.17g", name, v, pin.eval)
		}
	}
}

// TestBatchedTargetMatchesAlone: a target's readout must not depend on
// which other targets share its batch, bit for bit — the LayerNorm
// departure (README) and the float32 LSTM both rest on it. Each target
// draws its walks from its own seed, once inside a ragged batch beside
// the others (full walks, bare-source walks, a fallback) and once
// alone.
func TestBatchedTargetMatchesAlone(t *testing.T) {
	g := raggedGraph(t)
	const at = 0.8
	walked := []graph.NodeID{6, 13, 2, 12, 9}
	for name, mut := range referenceVariants {
		cfg := referenceConfig()
		mut(&cfg)
		m, err := NewModel(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tp := ag.NewNoGrad()
		var b batch
		for i, x := range walked {
			b.addWalks(m, x, at, rand.New(rand.NewSource(int64(40+i))))
			if i == 1 {
				b.addFallback(m, 3, rand.New(rand.NewSource(77)))
			}
		}
		zs := m.aggregate(tp, &b)
		zs = append(zs[:2], zs[3:]...) // drop the fallback
		for i, x := range walked {
			alone := m.Aggregate(tp, x, at, rand.New(rand.NewSource(int64(40+i))))
			for j, v := range alone.Value.Data {
				if got := zs[i].Value.Data[j]; got != v {
					t.Fatalf("%s: target %d unit %d: %v in the batch, %v alone", name, x, j, got, v)
				}
			}
		}
	}
}
