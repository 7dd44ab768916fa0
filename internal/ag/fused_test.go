package ag

import (
	"math"
	"testing"

	"ehna/internal/tensor"
)

// lstmInputs builds the input matrices of one LSTM layer over a
// time-major batch: x ((T·n)×in), then the 12 gate weights in
// LSTMWeights order.
func lstmInputs(rows, in, hidden int, seed int64) []*tensor.Matrix {
	ms := []*tensor.Matrix{rnd(rows, in, seed)}
	s := seed + 1
	for g := 0; g < 4; g++ {
		ms = append(ms, rnd(in, hidden, s), rnd(hidden, hidden, s+1), rnd(1, hidden, s+2))
		s += 3
	}
	return ms
}

func weightsFrom(leaves []*Node) LSTMWeights {
	return LSTMWeights{
		Wi: leaves[1], Ui: leaves[2], Bi: leaves[3],
		Wf: leaves[4], Uf: leaves[5], Bf: leaves[6],
		Wo: leaves[7], Uo: leaves[8], Bo: leaves[9],
		Wg: leaves[10], Ug: leaves[11], Bg: leaves[12],
	}
}

// unfusedSeq is the reference LSTMSeq replaced: every sequence runs on
// its own, one timestep at a time, through the op-by-op gate graph, and
// the per-step hidden states are stacked back into the time-major
// layout (a padding row repeats the sequence's last real state).
func unfusedSeq(tp *Tape, w LSTMWeights, x *Node, lens []int, T int) *Node {
	n := x.Value.Rows / T
	hidden := w.Bi.Value.Cols
	out := make([]*Node, T*n)
	for r := 0; r < n; r++ {
		h := tp.Const(tensor.New(1, hidden))
		c := tp.Const(tensor.New(1, hidden))
		for s := 0; s < T; s++ {
			if s < seqLen(lens, r, T) {
				xs := tp.Row(x, s*n+r)
				gate := func(W, U, B *Node) *Node {
					return tp.AddRowBroadcast(tp.Add(tp.MatMul(xs, W), tp.MatMul(h, U)), B)
				}
				i := tp.Sigmoid(gate(w.Wi, w.Ui, w.Bi))
				f := tp.Sigmoid(gate(w.Wf, w.Uf, w.Bf))
				o := tp.Sigmoid(gate(w.Wo, w.Uo, w.Bo))
				g := tp.Tanh(gate(w.Wg, w.Ug, w.Bg))
				c = tp.Add(tp.Mul(f, c), tp.Mul(i, g))
				h = tp.Mul(o, tp.Tanh(c))
			}
			out[s*n+r] = h
		}
	}
	return tp.StackRows(out)
}

// seqLoss weights every output row differently, so that a gradient
// arrives at every step of every sequence, padding included.
func seqLoss(tp *Tape, out *Node) *Node {
	w := tensor.New(out.Value.Rows, out.Value.Cols)
	for i := range w.Data {
		w.Data[i] = 0.3 + float64(i%7)*0.2
	}
	return tp.SumSquares(tp.Mul(out, tp.Const(w)))
}

// TestGradLSTMSeq verifies the float64 oracle, the op-by-op composition
// unfusedSeq, against central finite differences for x and all twelve
// weights, on a full batch and on a ragged one whose lengths run from 1
// to T. LSTMSeq itself computes in float32, whose rounding is larger
// than central differences can resolve; TestLSTMSeqMatchesUnfused holds
// it to this composition instead.
func TestGradLSTMSeq(t *testing.T) {
	const T, n = 4, 3
	for name, lens := range map[string][]int{"full": nil, "ragged": {1, 4, 2}} {
		lens := lens
		checkGrad(t, "LSTMSeq/"+name, lstmInputs(T*n, 3, 4, 42), func(tp *Tape, leaves []*Node) *Node {
			return seqLoss(tp, unfusedSeq(tp, weightsFrom(leaves), leaves[0], lens, T))
		})
	}
}

// stackedSeq feeds one layer's hidden sequence to a second layer and
// reads only the final states, the shape nn.StackedLSTM records; layer
// is LSTMSeq or unfusedSeq.
func stackedSeq(layer func(tp *Tape, w LSTMWeights, x *Node, lens []int, T int) *Node, lens []int, T int) func(tp *Tape, leaves []*Node) *Node {
	return func(tp *Tape, leaves []*Node) *Node {
		n := leaves[0].Value.Rows / T
		h1 := layer(tp, weightsFrom(leaves), leaves[0], lens, T)
		h2 := layer(tp, weightsFrom(leaves[12:]), h1, lens, T)
		return tp.Rows(h2, (T-1)*n, T*n)
	}
}

func stackedInputs(T, n int) []*tensor.Matrix {
	return append(lstmInputs(T*n, 2, 3, 7), lstmInputs(1, 3, 3, 70)[1:]...)
}

// TestGradLSTMSeqStacked is TestGradLSTMSeq for two stacked layers of
// the oracle.
func TestGradLSTMSeqStacked(t *testing.T) {
	const T = 3
	unfused := stackedSeq(unfusedSeq, []int{3, 1}, T)
	checkGrad(t, "LSTMSeq/stacked", stackedInputs(T, 2), func(tp *Tape, leaves []*Node) *Node {
		return tp.SumSquares(unfused(tp, leaves))
	})
}

// runSeq evaluates loss(op(...)) on fresh leaves and returns the
// output and every input's gradient.
func runSeq(inputs []*tensor.Matrix, op func(tp *Tape, leaves []*Node) *Node) (*tensor.Matrix, []*tensor.Matrix) {
	tp := New()
	leaves := make([]*Node, len(inputs))
	grads := make([]*tensor.Matrix, len(inputs))
	for i, in := range inputs {
		grads[i] = tensor.New(in.Rows, in.Cols)
		leaves[i] = tp.Leaf(in, grads[i])
	}
	out := op(tp, leaves)
	tp.Backward(seqLoss(tp, out))
	return out.Value.Clone(), grads
}

func assertSame(t *testing.T, name string, fv, uv *tensor.Matrix, fg, ug []*tensor.Matrix) {
	t.Helper()
	if !tensor.Equal(fv, uv, 1e-12) {
		t.Fatalf("%s: fused value %v != unfused %v", name, fv, uv)
	}
	for i := range fg {
		if !tensor.Equal(fg[i], ug[i], 1e-10) {
			t.Fatalf("%s: gradient %d: fused %v != unfused %v", name, i, fg[i], ug[i])
		}
	}
}

// gateBias overwrites the four gate biases of lstmInputs' matrices
// with ±v, the sign alternating across units and shifted from gate to
// gate, so that every combination of saturated gates occurs; scale
// multiplies the weights (0 leaves the bias as the whole
// pre-activation).
func gateBias(v, scale float64) func(inputs []*tensor.Matrix) {
	return func(inputs []*tensor.Matrix) {
		for g := 0; g < 4; g++ {
			w, u, b := inputs[1+3*g], inputs[2+3*g], inputs[3+3*g]
			tensor.ScaleInPlace(w, scale)
			tensor.ScaleInPlace(u, scale)
			for j := range b.Data {
				b.Data[j] = v
				if (j>>g)&1 == 1 {
					b.Data[j] = -v
				}
			}
		}
	}
}

// assertNear is assertSame for a float32 op against its float64
// oracle: each element within tol·max(1, |oracle|).
func assertNear(t *testing.T, name string, fv, uv *tensor.Matrix, fg, ug []*tensor.Matrix, vtol, gtol float64) {
	t.Helper()
	near := func(got, want *tensor.Matrix, tol float64) (int, bool) {
		for i, w := range want.Data {
			if !(math.Abs(got.Data[i]-w) <= tol*math.Max(1, math.Abs(w))) {
				return i, false
			}
		}
		return 0, true
	}
	if i, ok := near(fv, uv, vtol); !ok {
		t.Fatalf("%s: value %d: fused %.9g, unfused %.9g (tolerance %g)", name, i, fv.Data[i], uv.Data[i], vtol)
	}
	for k := range fg {
		if i, ok := near(fg[k], ug[k], gtol); !ok {
			t.Fatalf("%s: gradient %d elem %d: fused %.9g, unfused %.9g (tolerance %g)", name, k, i, fg[k].Data[i], ug[k].Data[i], gtol)
		}
	}
}

// lstmValueTol and lstmGradTol bound LSTMSeq's float32 computation
// against the float64 composition, relative to max(1, |oracle|): the
// cases below measure at most 2.1e-7 on values and 1.2e-6 on
// gradients (AVX2 backend; the portable one is no worse), about 3.5
// and 20 float32 ulps of 1.
const (
	lstmValueTol = 1e-6
	lstmGradTol  = 5e-6
)

// TestLSTMSeqMatchesUnfused checks value and gradient agreement with
// the per-sequence, per-step, op-by-op float64 composition, including
// the T = 1, n = 1 case that is a single LSTM step and two stacked
// layers. The unfused side takes its activations from the math
// package, the fused side from vecmath's float32 block kernels: the
// last cases drive the pre-activations to where the two could part —
// exactly zero, saturated (±30, where σ rounds to exactly 1 in float32
// and the float64 gradients that remain are below 1e-11) and at the
// edge of exp's range (±700, far past float32's).
func TestLSTMSeqMatchesUnfused(t *testing.T) {
	ragged := []int{5, 1, 3, 2}
	for _, tc := range []struct {
		name string
		T, n int
		lens []int
		prep func(inputs []*tensor.Matrix)
	}{
		{"step", 1, 1, nil, nil},
		{"full", 5, 3, nil, nil},
		{"ragged", 5, 4, ragged, nil},
		// 9 sequences: two full 4-row tiles and a 1-row partial tile.
		{"tiles", 3, 9, []int{3, 2, 1, 3, 3, 1, 2, 3, 2}, nil},
		{"pre=0", 5, 4, ragged, gateBias(0, 0)},
		{"pre=±30", 5, 4, ragged, gateBias(30, 1)},
		{"pre=±700", 5, 4, ragged, gateBias(700, 1)},
		{"pre=±700/full", 3, 5, nil, gateBias(700, 1)},
	} {
		inputs := lstmInputs(tc.T*tc.n, 3, 8, 1234)
		if tc.prep != nil {
			tc.prep(inputs)
		}
		fv, fg := runSeq(inputs, func(tp *Tape, l []*Node) *Node { return tp.LSTMSeq(weightsFrom(l), l[0], tc.lens, tc.T) })
		uv, ug := runSeq(inputs, func(tp *Tape, l []*Node) *Node { return unfusedSeq(tp, weightsFrom(l), l[0], tc.lens, tc.T) })
		assertNear(t, tc.name, fv, uv, fg, ug, lstmValueTol, lstmGradTol)
	}
	const T = 3
	fv, fg := runSeq(stackedInputs(T, 2), stackedSeq((*Tape).LSTMSeq, []int{3, 1}, T))
	uv, ug := runSeq(stackedInputs(T, 2), stackedSeq(unfusedSeq, []int{3, 1}, T))
	assertNear(t, "stacked", fv, uv, fg, ug, lstmValueTol, lstmGradTol)
}

// TestLSTMSeqRowsIndependentOfBatch runs a ragged batch through
// LSTMSeq and each of its sequences alone: every real step of every
// sequence must come out bit for bit the same, whatever rows share its
// products — the tile a row lands in, a partial tile's repeated rows
// and the Go columns beside the tile included (hidden 8 and 3).
func TestLSTMSeqRowsIndependentOfBatch(t *testing.T) {
	const T = 4
	lens := []int{4, 1, 3, 2, 4, 4, 1}
	n := len(lens)
	for _, hidden := range []int{8, 3} {
		inputs := lstmInputs(T*n, 5, hidden, 99)
		tp := New()
		leaves := make([]*Node, len(inputs))
		for i, in := range inputs {
			leaves[i] = tp.Const(in)
		}
		batch := tp.LSTMSeq(weightsFrom(leaves), leaves[0], lens, T)
		for r, L := range lens {
			x := tensor.New(L, inputs[0].Cols)
			for s := 0; s < L; s++ {
				x.SetRow(s, inputs[0].Row(s*n+r))
			}
			alone := tp.LSTMSeq(weightsFrom(append([]*Node{tp.Const(x)}, leaves[1:]...)), tp.Const(x), nil, L)
			for s := 0; s < L; s++ {
				for j, v := range alone.Value.Row(s) {
					if got := batch.Value.Row(s*n + r)[j]; got != v {
						t.Fatalf("hidden %d, sequence %d step %d unit %d: %v in the batch, %v alone", hidden, r, s, j, got, v)
					}
				}
			}
		}
	}
}

// unfusedAttend is the scalar-node attention graph Attend replaced:
// one SqDist, Scale and score node per item, a softmax per sequence and
// a RowScale, reassembled into the time-major layout with zero padding.
func unfusedAttend(tp *Tape, q, v *Node, coef []float64, lens []int, T int) *Node {
	n := v.Value.Rows / T
	zero := tp.Const(tensor.New(1, v.Value.Cols))
	out := make([]*Node, T*n)
	for r := 0; r < n; r++ {
		L := seqLen(lens, r, T)
		qr := tp.Row(q, r%q.Value.Rows)
		items := make([]*Node, L)
		scores := make([]*Node, L)
		for s := 0; s < L; s++ {
			items[s] = tp.Row(v, s*n+r)
			scores[s] = tp.Scale(tp.SqDist(qr, items[s]), -coef[s*n+r])
		}
		weighted := tp.RowScale(tp.StackRows(items), tp.SoftmaxRow(tp.ConcatScalars(scores)))
		for s := 0; s < T; s++ {
			if s < L {
				out[s*n+r] = tp.Row(weighted, s)
			} else {
				out[s*n+r] = zero
			}
		}
	}
	return tp.StackRows(out)
}

func attendCoef(rows int) []float64 {
	coef := make([]float64, rows)
	for i := range coef {
		coef[i] = 0.2 + float64(i%5)*0.15
	}
	return coef
}

// TestGradAttend verifies the fused attention backward against finite
// differences for the queries and the items, with shared queries (two
// sequences per query) and ragged lengths including a one-item
// sequence, whose softmax is constant.
func TestGradAttend(t *testing.T) {
	const T, n = 3, 4
	inputs := []*tensor.Matrix{rnd(2, 5, 51), rnd(T*n, 5, 52)}
	for name, lens := range map[string][]int{"full": nil, "ragged": {3, 1, 2, 3}} {
		lens := lens
		checkGrad(t, "Attend/"+name, inputs, func(tp *Tape, l []*Node) *Node {
			return seqLoss(tp, tp.Attend(l[0], l[1], attendCoef(T*n), lens, T))
		})
	}
}

func TestAttendMatchesUnfused(t *testing.T) {
	const T, n = 4, 6
	lens := []int{4, 1, 3, 2, 4, 1}
	inputs := []*tensor.Matrix{rnd(3, 5, 61), rnd(T*n, 5, 62)}
	coef := attendCoef(T * n)
	fv, fg := runSeq(inputs, func(tp *Tape, l []*Node) *Node { return tp.Attend(l[0], l[1], coef, lens, T) })
	uv, ug := runSeq(inputs, func(tp *Tape, l []*Node) *Node { return unfusedAttend(tp, l[0], l[1], coef, lens, T) })
	assertSame(t, "attend", fv, uv, fg, ug)
	for r, L := range lens {
		for s := L; s < T; s++ {
			for _, x := range fv.Row(s*n + r) {
				if x != 0 {
					t.Fatalf("padding row (step %d, sequence %d) is not zero", s, r)
				}
			}
		}
	}
}

func TestSeqOpsRejectBadBatches(t *testing.T) {
	for name, f := range map[string]func(tp *Tape, l []*Node){
		"rows not a multiple of T": func(tp *Tape, l []*Node) { tp.LSTMSeq(weightsFrom(l), l[0], nil, 4) },
		"wrong number of lengths":  func(tp *Tape, l []*Node) { tp.LSTMSeq(weightsFrom(l), l[0], []int{1}, 3) },
		"zero length":              func(tp *Tape, l []*Node) { tp.LSTMSeq(weightsFrom(l), l[0], []int{0, 1}, 3) },
		"length beyond T":          func(tp *Tape, l []*Node) { tp.LSTMSeq(weightsFrom(l), l[0], []int{4, 1}, 3) },
		"coef too short":           func(tp *Tape, l []*Node) { tp.Attend(l[0], l[0], make([]float64, 5), nil, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			tp := New()
			var leaves []*Node
			for _, in := range lstmInputs(6, 2, 2, 5) {
				leaves = append(leaves, tp.Const(in))
			}
			f(tp, leaves)
		}()
	}
}

// TestGradLayerNorm verifies the fused LayerNorm backward against
// finite differences for x, gain and bias.
func TestGradLayerNorm(t *testing.T) {
	inputs := []*tensor.Matrix{rnd(3, 5, 21), rnd(1, 5, 22), rnd(1, 5, 23)}
	checkGrad(t, "LayerNorm", inputs, func(tp *Tape, leaves []*Node) *Node {
		return tp.SumSquares(tp.LayerNorm(leaves[0], leaves[1], leaves[2], 1e-5))
	})
}

// TestLayerNormForward checks the normalization invariants directly:
// with unit gain and zero bias every row has mean 0 and variance ~1.
func TestLayerNormForward(t *testing.T) {
	x := rnd(4, 8, 33)
	gain := tensor.New(1, 8)
	gain.Fill(1)
	bias := tensor.New(1, 8)
	tp := New()
	y := tp.LayerNorm(tp.Const(x), tp.Const(gain), tp.Const(bias), 1e-9)
	for r := 0; r < 4; r++ {
		row := y.Value.Row(r)
		var mu, v float64
		for _, e := range row {
			mu += e
		}
		mu /= 8
		for _, e := range row {
			v += (e - mu) * (e - mu)
		}
		v /= 8
		if math.Abs(mu) > 1e-9 || math.Abs(v-1) > 1e-6 {
			t.Fatalf("row %d: mean %g var %g", r, mu, v)
		}
	}
}

// BenchmarkLSTMSeq times one LSTMSeq layer forward and backward at
// EHNA's node-level shape under the default configuration: T = 10 steps
// of n = 70 walks (7 targets × k = 10), 32 inputs and 32 hidden units,
// on a reused tape.
func BenchmarkLSTMSeq(b *testing.B) {
	const T, n, in, hidden = 10, 70, 32, 32
	inputs := lstmInputs(T*n, in, hidden, 5)
	sinks := make([]*tensor.Matrix, len(inputs))
	for i, m := range inputs {
		sinks[i] = tensor.New(m.Rows, m.Cols)
	}
	leaves := make([]*Node, len(inputs))
	tp := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp.Reset()
		for j, m := range inputs {
			leaves[j] = tp.Leaf(m, sinks[j])
		}
		tp.Backward(tp.SumSquares(tp.LSTMSeq(weightsFrom(leaves), leaves[0], nil, T)))
	}
}
