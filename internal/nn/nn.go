// Package nn provides neural-network building blocks on top of the ag
// autodiff tape: parameter registry, dense layers, a stacked LSTM, a
// normalization layer, an embedding table with sparse gradients, and the
// Adam optimizer with global-norm gradient clipping.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"ehna/internal/ag"
	"ehna/internal/tensor"
	"ehna/internal/vecmath"
)

// Param is one trainable matrix with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Matrix // value
	G    *tensor.Matrix // accumulated gradient
}

// NewParam returns a parameter wrapping w with a zeroed gradient.
func NewParam(name string, w *tensor.Matrix) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Rows, w.Cols)}
}

// Node binds the parameter onto the tape so gradients flow into p.G.
func (p *Param) Node(tp *ag.Tape) *ag.Node { return tp.Leaf(p.W, p.G) }

// Params is a named collection of trainable parameters.
type Params struct {
	list []*Param
}

// Add registers params (in order) and returns the collection for chaining.
func (ps *Params) Add(params ...*Param) *Params {
	ps.list = append(ps.list, params...)
	return ps
}

// List returns the registered parameters in registration order.
func (ps *Params) List() []*Param { return ps.list }

// ZeroGrad clears every parameter gradient.
func (ps *Params) ZeroGrad() {
	for _, p := range ps.list {
		p.G.Zero()
	}
}

// GradNorm returns the global L2 norm across all parameter gradients.
func (ps *Params) GradNorm() float64 {
	var s float64
	for _, p := range ps.list {
		s += vecmath.SquaredL2(p.G.Data)
	}
	return math.Sqrt(s)
}

// ClipGradNorm rescales all gradients so their global norm is at most max.
// It returns the pre-clip norm.
func (ps *Params) ClipGradNorm(max float64) float64 {
	norm := ps.GradNorm()
	if norm > max && norm > 0 {
		scale := max / norm
		for _, p := range ps.list {
			tensor.ScaleInPlace(p.G, scale)
		}
	}
	return norm
}

// XavierInit returns a rows×cols matrix with Glorot-uniform entries.
func XavierInit(rows, cols int, rng *rand.Rand) *tensor.Matrix {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	return tensor.Uniform(rows, cols, -limit, limit, rng)
}

// LSTMCell is a single LSTM layer processing one timestep at a time.
// Gates follow the standard formulation:
//
//	i = σ(x·Wi + h·Ui + bi)    f = σ(x·Wf + h·Uf + bf)
//	o = σ(x·Wo + h·Uo + bo)    g = tanh(x·Wg + h·Ug + bg)
//	c' = f⊙c + i⊙g             h' = o⊙tanh(c')
type LSTMCell struct {
	In, Hidden int
	Wi, Ui, Bi *Param
	Wf, Uf, Bf *Param
	Wo, Uo, Bo *Param
	Wg, Ug, Bg *Param
}

// NewLSTMCell returns an LSTM cell with Xavier weights and forget-gate bias
// initialized to 1 (standard practice to ease gradient flow early on).
func NewLSTMCell(name string, in, hidden int, rng *rand.Rand) *LSTMCell {
	mk := func(suffix string, r, c int) *Param {
		return NewParam(name+"."+suffix, XavierInit(r, c, rng))
	}
	cell := &LSTMCell{
		In: in, Hidden: hidden,
		Wi: mk("Wi", in, hidden), Ui: mk("Ui", hidden, hidden), Bi: NewParam(name+".bi", tensor.New(1, hidden)),
		Wf: mk("Wf", in, hidden), Uf: mk("Uf", hidden, hidden), Bf: NewParam(name+".bf", tensor.New(1, hidden)),
		Wo: mk("Wo", in, hidden), Uo: mk("Uo", hidden, hidden), Bo: NewParam(name+".bo", tensor.New(1, hidden)),
		Wg: mk("Wg", in, hidden), Ug: mk("Ug", hidden, hidden), Bg: NewParam(name+".bg", tensor.New(1, hidden)),
	}
	cell.Bf.W.Fill(1)
	return cell
}

// Register adds all gate parameters to ps.
func (c *LSTMCell) Register(ps *Params) {
	ps.Add(c.Wi, c.Ui, c.Bi, c.Wf, c.Uf, c.Bf, c.Wo, c.Uo, c.Bo, c.Wg, c.Ug, c.Bg)
}

// Weights records the cell's twelve gate parameters on the tape.
func (c *LSTMCell) Weights(tp *ag.Tape) ag.LSTMWeights {
	return ag.LSTMWeights{
		Wi: c.Wi.Node(tp), Ui: c.Ui.Node(tp), Bi: c.Bi.Node(tp),
		Wf: c.Wf.Node(tp), Uf: c.Uf.Node(tp), Bf: c.Bf.Node(tp),
		Wo: c.Wo.Node(tp), Uo: c.Uo.Node(tp), Bo: c.Bo.Node(tp),
		Wg: c.Wg.Node(tp), Ug: c.Ug.Node(tp), Bg: c.Bg.Node(tp),
	}
}

// Forward runs the layer from a zero state over a time-major batch of
// ragged sequences (see ag.LSTMSeq for the layout) and returns every
// step's hidden state in the same layout.
func (c *LSTMCell) Forward(tp *ag.Tape, x *ag.Node, lens []int, T int) *ag.Node {
	return tp.LSTMSeq(c.Weights(tp), x, lens, T)
}

// StackedLSTM is a multi-layer LSTM (the paper uses 2 layers). The input of
// layer k>0 is the hidden sequence of layer k−1; Forward returns the final
// hidden state of the top layer, summarizing the sequence.
type StackedLSTM struct {
	Cells []*LSTMCell
}

// NewStackedLSTM builds layers LSTM cells mapping in→hidden→…→hidden.
func NewStackedLSTM(name string, in, hidden, layers int, rng *rand.Rand) *StackedLSTM {
	if layers < 1 {
		panic(fmt.Sprintf("nn: StackedLSTM needs ≥1 layer, got %d", layers))
	}
	cells := make([]*LSTMCell, layers)
	for l := 0; l < layers; l++ {
		cin := in
		if l > 0 {
			cin = hidden
		}
		cells[l] = NewLSTMCell(fmt.Sprintf("%s.l%d", name, l), cin, hidden, rng)
	}
	return &StackedLSTM{Cells: cells}
}

// Register adds all layers' parameters to ps.
func (s *StackedLSTM) Register(ps *Params) {
	for _, c := range s.Cells {
		c.Register(ps)
	}
}

// ForwardBatch consumes a time-major batch of n sequences of up to T
// steps (x is (T·n)×in, row t·n+r being step t of sequence r, which has
// lens[r] real steps; nil lens means all have T) and returns the top
// layer's final hidden state of every sequence (n×hidden). Each layer
// is one tape node.
func (s *StackedLSTM) ForwardBatch(tp *ag.Tape, x *ag.Node, lens []int, T int) *ag.Node {
	for _, cell := range s.Cells {
		x = cell.Forward(tp, x, lens, T)
	}
	n := x.Value.Rows / T
	return tp.Rows(x, (T-1)*n, T*n)
}

// Norm is a normalization layer with learned gain and bias. The paper
// applies batch normalization after each LSTM aggregator; because EHNA's
// aggregation graph has batch dimension 1 per target node, we normalize
// across features (layer normalization), which preserves the role of the
// paper's BN (re-centering/re-scaling with trainable affine) and is
// well-defined for single samples. Recorded as a substitution in the
// README ("Departures from the paper").
type Norm struct {
	Gain, Bias *Param
	eps        float64
}

// NewNorm returns a feature-normalization layer over dim features.
func NewNorm(name string, dim int) *Norm {
	g := tensor.New(1, dim)
	g.Fill(1)
	return &Norm{
		Gain: NewParam(name+".gain", g),
		Bias: NewParam(name+".bias", tensor.New(1, dim)),
		eps:  1e-5,
	}
}

// Register adds the layer's parameters to ps.
func (n *Norm) Register(ps *Params) { ps.Add(n.Gain, n.Bias) }

// Forward normalizes each row of x to zero mean and unit variance across
// features, then applies the learned affine transform, through the fused
// ag.LayerNorm kernel (one tape node instead of ~13 per row).
func (n *Norm) Forward(tp *ag.Tape, x *ag.Node) *ag.Node {
	return tp.LayerNorm(x, n.Gain.Node(tp), n.Bias.Node(tp), n.eps)
}

// Embedding is a |V|×d table with sparse gradient accumulation: only rows
// touched in the current step allocate gradient storage.
type Embedding struct {
	W     *tensor.Matrix
	grads map[int][]float64
}

// NewEmbedding returns a table initialized with N(0, 1/d) entries.
func NewEmbedding(n, d int, rng *rand.Rand) *Embedding {
	return &Embedding{
		W:     tensor.Randn(n, d, 1/math.Sqrt(float64(d)), rng),
		grads: make(map[int][]float64),
	}
}

// Len returns the number of rows (vocabulary size).
func (e *Embedding) Len() int { return e.W.Rows }

// Lookup binds rows idx of the table onto the tape as a len(idx)×d node;
// a negative index is padding and reads as a zero row. Gradients are
// scattered into per-row accumulators.
func (e *Embedding) Lookup(tp *ag.Tape, idx []int) *ag.Node {
	return tp.Gather(e.W, idx, e)
}

// AddRowGrad adds g to the accumulated gradient of row id; it is the
// ag.RowSink a Lookup delivers its gradient through.
func (e *Embedding) AddRowGrad(id int, g []float64) {
	acc := e.grads[id]
	if acc == nil {
		acc = make([]float64, e.W.Cols)
		e.grads[id] = acc
	}
	vecmath.Add(acc, g)
}

// Step applies plain SGD to the touched rows and clears the accumulators.
func (e *Embedding) Step(lr float64) {
	for id, g := range e.grads {
		vecmath.Axpy(e.W.Row(id), -lr, g)
	}
	e.ZeroGrad()
}

// ZeroGrad discards all accumulated row gradients.
func (e *Embedding) ZeroGrad() {
	for k := range e.grads {
		delete(e.grads, k)
	}
}

// RowGrad returns the gradient accumulated for row id, nil if the row
// is untouched (test hook).
func (e *Embedding) RowGrad(id int) []float64 { return e.grads[id] }

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param][]float64
}

// NewAdam returns Adam with the canonical defaults and the given rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float64), v: make(map[*Param][]float64)}
}

// Step updates all parameters in ps from their gradients.
func (o *Adam) Step(ps *Params) {
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range ps.List() {
		m := o.m[p]
		if m == nil {
			m = make([]float64, len(p.W.Data))
			o.m[p] = m
			o.v[p] = make([]float64, len(p.W.Data))
		}
		v := o.v[p]
		vecmath.AdamStep(p.W.Data, m, v, p.G.Data, o.LR, o.Beta1, o.Beta2, o.Eps, c1, c2)
	}
}

// Shadow returns a parameter sharing p's weights but owning a private
// gradient buffer. Worker replicas use shadows to accumulate gradients
// without data races; MergeGradsInto folds them back.
func (p *Param) Shadow() *Param {
	return &Param{Name: p.Name, W: p.W, G: tensor.New(p.W.Rows, p.W.Cols)}
}

// Shadow returns a cell view sharing weights with private gradients.
func (c *LSTMCell) Shadow() *LSTMCell {
	return &LSTMCell{
		In: c.In, Hidden: c.Hidden,
		Wi: c.Wi.Shadow(), Ui: c.Ui.Shadow(), Bi: c.Bi.Shadow(),
		Wf: c.Wf.Shadow(), Uf: c.Uf.Shadow(), Bf: c.Bf.Shadow(),
		Wo: c.Wo.Shadow(), Uo: c.Uo.Shadow(), Bo: c.Bo.Shadow(),
		Wg: c.Wg.Shadow(), Ug: c.Ug.Shadow(), Bg: c.Bg.Shadow(),
	}
}

// Shadow returns a stacked-LSTM view sharing weights with private gradients.
func (s *StackedLSTM) Shadow() *StackedLSTM {
	cells := make([]*LSTMCell, len(s.Cells))
	for i, c := range s.Cells {
		cells[i] = c.Shadow()
	}
	return &StackedLSTM{Cells: cells}
}

// Shadow returns a normalization-layer view sharing weights with private
// gradients.
func (n *Norm) Shadow() *Norm {
	return &Norm{Gain: n.Gain.Shadow(), Bias: n.Bias.Shadow(), eps: n.eps}
}

// Shadow returns an embedding view sharing the table with a private
// sparse-gradient accumulator.
func (e *Embedding) Shadow() *Embedding {
	return &Embedding{W: e.W, grads: make(map[int][]float64)}
}

// MergeGradsInto adds e's accumulated row gradients into dst and clears e.
func (e *Embedding) MergeGradsInto(dst *Embedding) {
	for id, g := range e.grads {
		dst.AddRowGrad(id, g)
	}
	e.ZeroGrad()
}

// MergeGradsInto adds src's gradients into dst position-wise. Both
// collections must have been registered in the same order (shadow
// replicas preserve registration order by construction).
func MergeGradsInto(dst, src *Params) {
	if len(dst.list) != len(src.list) {
		panic(fmt.Sprintf("nn: MergeGradsInto size mismatch %d vs %d", len(dst.list), len(src.list)))
	}
	for i, p := range src.list {
		tensor.AddInPlace(dst.list[i].G, p.G)
	}
}
