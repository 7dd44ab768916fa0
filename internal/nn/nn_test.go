package nn

import (
	"math"
	"math/rand"
	"testing"

	"ehna/internal/ag"
	"ehna/internal/tensor"
)

// Forward consumes seq (T×in, one row per timestep, batch size 1) and
// returns the top layer's final hidden state (1×hidden).
func (s *StackedLSTM) Forward(tp *ag.Tape, seq *ag.Node) *ag.Node {
	if seq.Value.Rows == 0 {
		panic("nn: StackedLSTM on empty sequence")
	}
	return s.ForwardBatch(tp, seq, nil, seq.Value.Rows)
}

// Dim returns the embedding dimensionality.
func (e *Embedding) Dim() int { return e.W.Cols }

// Dense is a fully connected layer: y = x·W + b.
type Dense struct {
	W, B *Param
}

// NewDense returns a Dense layer with Xavier-initialized weights.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	return &Dense{
		W: NewParam(name+".W", XavierInit(in, out, rng)),
		B: NewParam(name+".b", tensor.New(1, out)),
	}
}

// Register adds the layer's parameters to ps.
func (d *Dense) Register(ps *Params) { ps.Add(d.W, d.B) }

// Forward applies the layer to x (n×in) producing n×out.
func (d *Dense) Forward(tp *ag.Tape, x *ag.Node) *ag.Node {
	return tp.AddRowBroadcast(tp.MatMul(x, d.W.Node(tp)), d.B.Node(tp))
}

// Shadow returns a layer view sharing weights with a private gradient.
func (d *Dense) Shadow() *Dense {
	return &Dense{W: d.W.Shadow(), B: d.B.Shadow()}
}

// Count returns the total number of scalar parameters.
func (ps *Params) Count() int {
	n := 0
	for _, p := range ps.list {
		n += len(p.W.Data)
	}
	return n
}

// touchedRows returns how many rows of e currently hold gradient.
func touchedRows(e *Embedding) int { return len(e.grads) }

func TestParamNodeAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewParam("w", tensor.Randn(2, 2, 1, rng))
	tp := ag.New()
	n := p.Node(tp)
	tp.Backward(tp.SumSquares(n))
	for i, v := range p.W.Data {
		if math.Abs(p.G.Data[i]-2*v) > 1e-9 {
			t.Fatalf("grad elem %d: got %g want %g", i, p.G.Data[i], 2*v)
		}
	}
}

func TestParamsRegistryAndZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var ps Params
	a := NewParam("a", tensor.Randn(2, 3, 1, rng))
	b := NewParam("b", tensor.Randn(1, 3, 1, rng))
	ps.Add(a, b)
	if len(ps.List()) != 2 || ps.Count() != 9 {
		t.Fatalf("registry: %d params count %d", len(ps.List()), ps.Count())
	}
	a.G.Fill(1)
	ps.ZeroGrad()
	if a.G.Sum() != 0 {
		t.Fatal("ZeroGrad failed")
	}
}

func TestClipGradNorm(t *testing.T) {
	var ps Params
	p := NewParam("p", tensor.New(1, 4))
	ps.Add(p)
	p.G.SetRow(0, []float64{3, 4, 0, 0}) // norm 5
	pre := ps.ClipGradNorm(1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm %g", pre)
	}
	if math.Abs(ps.GradNorm()-1) > 1e-9 {
		t.Fatalf("post-clip norm %g", ps.GradNorm())
	}
	// Norm below max must be untouched.
	p.G.SetRow(0, []float64{0.1, 0, 0, 0})
	ps.ClipGradNorm(1)
	if math.Abs(ps.GradNorm()-0.1) > 1e-12 {
		t.Fatal("clip must not rescale small gradients")
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := XavierInit(10, 30, rng)
	limit := math.Sqrt(6.0 / 40.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("xavier value %g outside ±%g", v, limit)
		}
	}
}

func TestDenseForwardShapeAndValue(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDense("fc", 3, 2, rng)
	d.B.W.SetRow(0, []float64{1, -1})
	tp := ag.New()
	x := tp.Const(tensor.FromSlice(1, 3, []float64{1, 0, 0}))
	y := d.Forward(tp, x)
	if y.Value.Rows != 1 || y.Value.Cols != 2 {
		t.Fatalf("shape %dx%d", y.Value.Rows, y.Value.Cols)
	}
	want0 := d.W.W.At(0, 0) + 1
	if math.Abs(y.Value.At(0, 0)-want0) > 1e-12 {
		t.Fatalf("got %g want %g", y.Value.At(0, 0), want0)
	}
}

// finite-difference check through an entire layer's parameters.
func layerGradCheck(t *testing.T, ps *Params, forward func() float64) {
	t.Helper()
	layerGradCheckStep(t, ps, 1e-5, forward)
}

// lstmStep is the central-difference step for a forward pass through
// ag.LSTMSeq, which computes in float32: the step that balances
// truncation (∝ h²) against rounding (∝ ε/h) is ∛ε, 1e-5 for float64's
// ε and 4e-3 for float32's 6e-8.
const lstmStep = 4e-3

// layerGradCheckStep is layerGradCheck with central differences of
// step h.
func layerGradCheckStep(t *testing.T, ps *Params, h float64, forward func() float64) {
	t.Helper()
	ps.ZeroGrad()
	base := forward() // populates gradients via Backward inside
	_ = base
	for _, p := range ps.List() {
		for i := range p.W.Data {
			analytic := p.G.Data[i]
			orig := p.W.Data[i]
			ps2 := *ps // evaluation must not re-accumulate; we re-zero below
			_ = ps2
			p.W.Data[i] = orig + h
			gsave := cloneGrads(ps)
			fp := forward()
			restoreGrads(ps, gsave)
			p.W.Data[i] = orig - h
			gsave = cloneGrads(ps)
			fm := forward()
			restoreGrads(ps, gsave)
			p.W.Data[i] = orig
			num := (fp - fm) / (2 * h)
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(analytic)))
			if math.Abs(num-analytic)/scale > 1e-3 {
				t.Fatalf("param %s elem %d: analytic %g numeric %g", p.Name, i, analytic, num)
			}
		}
	}
}

func cloneGrads(ps *Params) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(ps.List()))
	for i, p := range ps.List() {
		out[i] = p.G.Clone()
	}
	return out
}

func restoreGrads(ps *Params, saved []*tensor.Matrix) {
	for i, p := range ps.List() {
		copy(p.G.Data, saved[i].Data)
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDense("fc", 3, 2, rng)
	var ps Params
	d.Register(&ps)
	x := tensor.Randn(2, 3, 1, rng)
	layerGradCheck(t, &ps, func() float64 {
		tp := ag.New()
		out := tp.SumSquares(d.Forward(tp, tp.Const(x)))
		tp.Backward(out)
		return ag.Value(out)
	})
}

func TestLSTMCellForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewLSTMCell("lstm", 4, 3, rng)
	tp := ag.New()
	// Two steps of a batch of three sequences.
	hs := c.Forward(tp, tp.Const(tensor.Randn(6, 4, 1, rng)), []int{2, 1, 2}, 2)
	if hs.Value.Rows != 6 || hs.Value.Cols != 3 {
		t.Fatalf("hidden sequence %dx%d, want 6x3", hs.Value.Rows, hs.Value.Cols)
	}
	// The one-step sequence carries its state through its padding step.
	for j, v := range hs.Value.Row(1) {
		if hs.Value.Row(4)[j] != v {
			t.Fatal("padding step changed the hidden state")
		}
	}
	// Hidden values must lie in (−1, 1): o·tanh(c).
	for _, v := range hs.Value.Data {
		if v <= -1 || v >= 1 {
			t.Fatalf("hidden out of range: %g", v)
		}
	}
}

func TestLSTMForgetBiasInit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewLSTMCell("lstm", 2, 2, rng)
	for _, v := range c.Bf.W.Data {
		if v != 1 {
			t.Fatal("forget bias must initialize to 1")
		}
	}
}

func TestLSTMCellGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := NewLSTMCell("lstm", 3, 2, rng)
	var ps Params
	c.Register(&ps)
	seq := tensor.Randn(3, 3, 1, rng)
	layerGradCheckStep(t, &ps, lstmStep, func() float64 {
		tp := ag.New()
		hs := c.Forward(tp, tp.Const(seq), nil, seq.Rows)
		out := tp.SumSquares(tp.Row(hs, seq.Rows-1))
		tp.Backward(out)
		return ag.Value(out)
	})
}

func TestStackedLSTMForward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewStackedLSTM("s", 4, 3, 2, rng)
	if len(s.Cells) != 2 {
		t.Fatal("expected 2 layers")
	}
	if s.Cells[0].In != 4 || s.Cells[1].In != 3 {
		t.Fatalf("layer input dims %d %d", s.Cells[0].In, s.Cells[1].In)
	}
	tp := ag.New()
	seq := tp.Const(tensor.Randn(5, 4, 1, rng))
	h := s.Forward(tp, seq)
	if h.Value.Rows != 1 || h.Value.Cols != 3 {
		t.Fatalf("output %dx%d", h.Value.Rows, h.Value.Cols)
	}
}

func TestStackedLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := NewStackedLSTM("s", 2, 2, 2, rng)
	var ps Params
	s.Register(&ps)
	seq := tensor.Randn(3, 2, 1, rng)
	layerGradCheckStep(t, &ps, lstmStep, func() float64 {
		tp := ag.New()
		out := tp.SumSquares(s.Forward(tp, tp.Const(seq)))
		tp.Backward(out)
		return ag.Value(out)
	})
}

// batchGradTol bounds, relative to max(1, |g|), how far a parameter
// gradient summed in float32 over a batch's rows may lie from the same
// gradient summed per sequence and added in float64; measured 2.1e-8
// at worst (portable kernels; 1.0e-8 on AVX2).
const batchGradTol = 2e-7

// TestStackedLSTMBatchMatchesPerSequence runs a ragged batch through
// ForwardBatch and each of its sequences alone through Forward: final
// states must agree bit for bit (a row's result does not depend on its
// batch) and, with one loss over all of them, every parameter gradient
// within float32 summation error.
func TestStackedLSTMBatchMatchesPerSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	s := NewStackedLSTM("s", 3, 4, 2, rng)
	var ps Params
	s.Register(&ps)
	const T = 4
	lens := []int{4, 1, 3}
	n := len(lens)
	seqs := make([]*tensor.Matrix, n)
	batch := tensor.New(T*n, 3) // padding rows stay zero
	for r, L := range lens {
		seqs[r] = tensor.Randn(L, 3, 1, rng)
		for step := 0; step < L; step++ {
			batch.SetRow(step*n+r, seqs[r].Row(step))
		}
	}

	ps.ZeroGrad()
	tp := ag.New()
	hb := s.ForwardBatch(tp, tp.Const(batch), lens, T)
	tp.Backward(tp.SumSquares(hb))
	batched := cloneGrads(&ps)

	ps.ZeroGrad()
	tp = ag.New()
	finals := make([]*ag.Node, n)
	for r := range seqs {
		finals[r] = s.Forward(tp, tp.Const(seqs[r]))
	}
	hs := tp.StackRows(finals)
	tp.Backward(tp.SumSquares(hs))

	if !tensor.Equal(hb.Value, hs.Value, 0) {
		t.Fatalf("batched finals %v != per-sequence %v", hb.Value, hs.Value)
	}
	for i, p := range ps.List() {
		for j, want := range p.G.Data {
			if d := math.Abs(batched[i].Data[j] - want); d > batchGradTol*math.Max(1, math.Abs(want)) {
				t.Fatalf("param %s elem %d: batched gradient %.9g, per-sequence %.9g", p.Name, j, batched[i].Data[j], want)
			}
		}
	}
}

func TestStackedLSTMEmptySeqPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewStackedLSTM("s", 2, 2, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := ag.New()
	s.Forward(tp, tp.Const(tensor.New(0, 2)))
}

func TestStackedLSTMZeroLayersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStackedLSTM("s", 2, 2, 0, rand.New(rand.NewSource(12)))
}

func TestNormForwardStats(t *testing.T) {
	n := NewNorm("bn", 4)
	tp := ag.New()
	x := tp.Const(tensor.FromSlice(2, 4, []float64{1, 2, 3, 4, 10, 20, 30, 40}))
	y := n.Forward(tp, x)
	for i := 0; i < 2; i++ {
		row := y.Value.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= 4
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("row %d mean %g, want 0 (gain=1 bias=0)", i, mean)
		}
		var variance float64
		for _, v := range row {
			variance += (v - mean) * (v - mean)
		}
		variance /= 4
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("row %d variance %g, want ~1", i, variance)
		}
	}
}

func TestNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := NewNorm("bn", 3)
	var ps Params
	n.Register(&ps)
	x := tensor.Randn(2, 3, 1, rng)
	layerGradCheck(t, &ps, func() float64 {
		tp := ag.New()
		out := tp.SumSquares(n.Forward(tp, tp.Const(x)))
		tp.Backward(out)
		return ag.Value(out)
	})
}

func TestEmbeddingLookupAndStep(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	e := NewEmbedding(10, 4, rng)
	if e.Len() != 10 || e.Dim() != 4 {
		t.Fatal("dims")
	}
	before := e.W.Clone()
	tp := ag.New()
	x := e.Lookup(tp, []int{2, 5, 2})
	tp.Backward(tp.SumSquares(x))
	if touchedRows(e) != 2 {
		t.Fatalf("touched %d rows, want 2", touchedRows(e))
	}
	e.Step(0.1)
	if touchedRows(e) != 0 {
		t.Fatal("Step must clear accumulators")
	}
	// Row 2 was used twice: grad = 2*2*w; row 5 once: 2*w; row 0 untouched.
	for j := 0; j < 4; j++ {
		w := before.At(2, j)
		want := w - 0.1*4*w
		if math.Abs(e.W.At(2, j)-want) > 1e-9 {
			t.Fatalf("row2[%d]: got %g want %g", j, e.W.At(2, j), want)
		}
		if e.W.At(0, j) != before.At(0, j) {
			t.Fatal("untouched row must not change")
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ‖w − target‖² — Adam should get close quickly.
	rng := rand.New(rand.NewSource(15))
	target := tensor.Randn(1, 5, 1, rng)
	p := NewParam("w", tensor.New(1, 5))
	var ps Params
	ps.Add(p)
	opt := NewAdam(0.05)
	for it := 0; it < 500; it++ {
		ps.ZeroGrad()
		tp := ag.New()
		w := p.Node(tp)
		loss := tp.SqDist(w, tp.Const(target))
		tp.Backward(loss)
		opt.Step(&ps)
	}
	if d := tensor.SqDistVec(p.W.Data, target.Data); d > 1e-3 {
		t.Fatalf("Adam did not converge: dist %g", d)
	}
}

func TestLSTMLearnsToSumSequence(t *testing.T) {
	// Integration: a 1-layer LSTM + dense head learns a simple sequence
	// regression (predict the sum of a short sequence) — verifies that all
	// pieces train together.
	rng := rand.New(rand.NewSource(17))
	lstm := NewStackedLSTM("lstm", 1, 8, 1, rng)
	head := NewDense("head", 8, 1, rng)
	var ps Params
	lstm.Register(&ps)
	head.Register(&ps)
	opt := NewAdam(0.01)

	sample := func() (*tensor.Matrix, float64) {
		T := 3
		seq := tensor.New(T, 1)
		var sum float64
		for i := 0; i < T; i++ {
			v := rng.Float64()*2 - 1
			seq.Set(i, 0, v)
			sum += v
		}
		return seq, sum
	}
	var lastLoss float64
	for it := 0; it < 400; it++ {
		seq, sum := sample()
		ps.ZeroGrad()
		tp := ag.New()
		h := lstm.Forward(tp, tp.Const(seq))
		pred := head.Forward(tp, h)
		loss := tp.SqDist(pred, tp.Const(tensor.FromSlice(1, 1, []float64{sum})))
		tp.Backward(loss)
		ps.ClipGradNorm(5)
		opt.Step(&ps)
		lastLoss = ag.Value(loss)
	}
	// Average the loss over fresh samples.
	var total float64
	for i := 0; i < 50; i++ {
		seq, sum := sample()
		tp := ag.New()
		pred := head.Forward(tp, lstm.Forward(tp, tp.Const(seq)))
		d := pred.Value.Data[0] - sum
		total += d * d
	}
	avg := total / 50
	if avg > 0.05 {
		t.Fatalf("LSTM failed to learn sequence sum: avg MSE %g (last train loss %g)", avg, lastLoss)
	}
}

func BenchmarkStackedLSTMForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewStackedLSTM("s", 64, 64, 2, rng)
	var ps Params
	s.Register(&ps)
	seq := tensor.Randn(10, 64, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.ZeroGrad()
		tp := ag.New()
		out := tp.SumSquares(s.Forward(tp, tp.Const(seq)))
		tp.Backward(out)
	}
}

func TestParamShadowSharesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	p := NewParam("w", tensor.Randn(2, 3, 1, rng))
	s := p.Shadow()
	if s.W != p.W {
		t.Fatal("shadow must share the weight matrix")
	}
	if s.G == p.G {
		t.Fatal("shadow must own its gradient")
	}
	s.G.Fill(1)
	if p.G.Sum() != 0 {
		t.Fatal("shadow gradient leaked into the original")
	}
}

func TestMergeGradsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var main, shadow Params
	p := NewParam("w", tensor.Randn(2, 2, 1, rng))
	main.Add(p)
	sp := p.Shadow()
	shadow.Add(sp)
	p.G.Fill(1)
	sp.G.Fill(2)
	MergeGradsInto(&main, &shadow)
	for _, v := range p.G.Data {
		if v != 3 {
			t.Fatalf("merged gradient %g want 3", v)
		}
	}
}

func TestMergeGradsIntoSizeMismatchPanics(t *testing.T) {
	var a, b Params
	a.Add(NewParam("x", tensor.New(1, 1)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MergeGradsInto(&a, &b)
}

func TestLayerShadowsProduceSameForward(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	lstm := NewStackedLSTM("s", 3, 3, 2, rng)
	shadow := lstm.Shadow()
	norm := NewNorm("n", 3)
	nshadow := norm.Shadow()
	dense := NewDense("d", 3, 2, rng)
	dshadow := dense.Shadow()
	seq := tensor.Randn(4, 3, 1, rng)

	tp1 := ag.New()
	out1 := dshadow.Forward(tp1, nshadow.Forward(tp1, shadow.Forward(tp1, tp1.Const(seq))))
	tp2 := ag.New()
	out2 := dense.Forward(tp2, norm.Forward(tp2, lstm.Forward(tp2, tp2.Const(seq))))
	if !tensor.Equal(out1.Value, out2.Value, 0) {
		t.Fatal("shadow layers must compute identical forward passes")
	}
}

func TestEmbeddingShadowAndMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	e := NewEmbedding(5, 3, rng)
	s := e.Shadow()
	if s.W != e.W {
		t.Fatal("embedding shadow must share the table")
	}
	tp := ag.New()
	x := s.Lookup(tp, []int{1, 3})
	tp.Backward(tp.SumSquares(x))
	if touchedRows(s) != 2 || touchedRows(e) != 0 {
		t.Fatalf("gradient isolation broken: shadow %d main %d", touchedRows(s), touchedRows(e))
	}
	s.MergeGradsInto(e)
	if touchedRows(e) != 2 || touchedRows(s) != 0 {
		t.Fatalf("merge failed: shadow %d main %d", touchedRows(s), touchedRows(e))
	}
}
