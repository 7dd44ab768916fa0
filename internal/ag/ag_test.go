package ag

import (
	"math"
	"math/rand"
	"testing"

	"ehna/internal/tensor"
)

// SumAll returns the 1×1 sum of all elements of x.
func (t *Tape) SumAll(x *Node) *Node {
	n := t.node(1, 1, x.needs)
	n.Value.Data[0] = x.Value.Sum()
	if n.needs {
		n.back = func(n *Node) {
			g := n.grad.Data[0]
			xg := x.Grad()
			for i := range xg.Data {
				xg.Data[i] += g
			}
		}
	}
	return n
}

// checkGrad verifies the analytic gradient of a scalar-valued tape program
// against central finite differences for every input matrix.
//
// build must construct the graph from leaves bound to the given inputs and
// return the scalar root.
func checkGrad(t *testing.T, name string, inputs []*tensor.Matrix, build func(tp *Tape, leaves []*Node) *Node) {
	t.Helper()
	sinks := make([]*tensor.Matrix, len(inputs))
	tp := New()
	leaves := make([]*Node, len(inputs))
	for i, in := range inputs {
		sinks[i] = tensor.New(in.Rows, in.Cols)
		leaves[i] = tp.Leaf(in, sinks[i])
	}
	root := build(tp, leaves)
	tp.Backward(root)

	const h = 1e-5
	eval := func() float64 {
		tp2 := New()
		lv := make([]*Node, len(inputs))
		for i, in := range inputs {
			lv[i] = tp2.Const(in)
			lv[i].needs = false
		}
		return Value(build(tp2, lv))
	}
	for pi, in := range inputs {
		for i := range in.Data {
			orig := in.Data[i]
			in.Data[i] = orig + h
			fp := eval()
			in.Data[i] = orig - h
			fm := eval()
			in.Data[i] = orig
			num := (fp - fm) / (2 * h)
			got := sinks[pi].Data[i]
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(got)))
			if math.Abs(num-got)/scale > 1e-4 {
				t.Fatalf("%s: input %d elem %d: analytic %g numeric %g", name, pi, i, got, num)
			}
		}
	}
}

func rnd(rows, cols int, seed int64) *tensor.Matrix {
	return tensor.Randn(rows, cols, 0.7, rand.New(rand.NewSource(seed)))
}

func TestGradAdd(t *testing.T) {
	checkGrad(t, "add", []*tensor.Matrix{rnd(2, 3, 1), rnd(2, 3, 2)}, func(tp *Tape, l []*Node) *Node {
		return tp.SumSquares(tp.Add(l[0], l[1]))
	})
}

func TestGradSub(t *testing.T) {
	checkGrad(t, "sub", []*tensor.Matrix{rnd(2, 3, 3), rnd(2, 3, 4)}, func(tp *Tape, l []*Node) *Node {
		return tp.SumSquares(tp.Sub(l[0], l[1]))
	})
}

func TestGradMul(t *testing.T) {
	checkGrad(t, "mul", []*tensor.Matrix{rnd(2, 3, 5), rnd(2, 3, 6)}, func(tp *Tape, l []*Node) *Node {
		return tp.SumAll(tp.Mul(l[0], l[1]))
	})
}

func TestGradScaleAddConst(t *testing.T) {
	checkGrad(t, "scale", []*tensor.Matrix{rnd(2, 2, 7)}, func(tp *Tape, l []*Node) *Node {
		return tp.SumSquares(tp.AddConst(tp.Scale(l[0], -2.5), 0.3))
	})
}

func TestGradMatMul(t *testing.T) {
	checkGrad(t, "matmul", []*tensor.Matrix{rnd(3, 4, 8), rnd(4, 2, 9)}, func(tp *Tape, l []*Node) *Node {
		return tp.SumSquares(tp.MatMul(l[0], l[1]))
	})
}

func TestGradMatMulChain(t *testing.T) {
	checkGrad(t, "matmulchain", []*tensor.Matrix{rnd(2, 3, 10), rnd(3, 3, 11), rnd(3, 1, 12)}, func(tp *Tape, l []*Node) *Node {
		return tp.SumSquares(tp.MatMul(tp.MatMul(l[0], l[1]), l[2]))
	})
}

func TestGradAddRowBroadcast(t *testing.T) {
	checkGrad(t, "bias", []*tensor.Matrix{rnd(3, 4, 13), rnd(1, 4, 14)}, func(tp *Tape, l []*Node) *Node {
		return tp.SumSquares(tp.AddRowBroadcast(l[0], l[1]))
	})
}

func TestGradSigmoid(t *testing.T) {
	checkGrad(t, "sigmoid", []*tensor.Matrix{rnd(2, 3, 15)}, func(tp *Tape, l []*Node) *Node {
		return tp.SumSquares(tp.Sigmoid(l[0]))
	})
}

func TestGradTanh(t *testing.T) {
	checkGrad(t, "tanh", []*tensor.Matrix{rnd(2, 3, 16)}, func(tp *Tape, l []*Node) *Node {
		return tp.SumSquares(tp.Tanh(l[0]))
	})
}

func TestGradReLU(t *testing.T) {
	// Shift inputs away from the kink at 0 so finite differences are valid.
	in := rnd(2, 3, 17)
	for i := range in.Data {
		if math.Abs(in.Data[i]) < 0.05 {
			in.Data[i] = 0.1
		}
	}
	checkGrad(t, "relu", []*tensor.Matrix{in}, func(tp *Tape, l []*Node) *Node {
		return tp.SumSquares(tp.ReLU(l[0]))
	})
}

func TestGradSoftmaxRow(t *testing.T) {
	checkGrad(t, "softmax", []*tensor.Matrix{rnd(1, 5, 18), rnd(1, 5, 19)}, func(tp *Tape, l []*Node) *Node {
		// Weighted sum of softmax outputs exercises the full Jacobian.
		return tp.SumAll(tp.Mul(tp.SoftmaxRow(l[0]), l[1]))
	})
}

func TestGradConcatCols(t *testing.T) {
	checkGrad(t, "concat", []*tensor.Matrix{rnd(2, 3, 20), rnd(2, 2, 21)}, func(tp *Tape, l []*Node) *Node {
		return tp.SumSquares(tp.ConcatCols(l[0], l[1]))
	})
}

func TestGradRowScale(t *testing.T) {
	checkGrad(t, "rowscale", []*tensor.Matrix{rnd(3, 4, 22), rnd(1, 3, 23)}, func(tp *Tape, l []*Node) *Node {
		return tp.SumSquares(tp.RowScale(l[0], l[1]))
	})
}

func TestGradRowAndStack(t *testing.T) {
	checkGrad(t, "rowstack", []*tensor.Matrix{rnd(3, 4, 24)}, func(tp *Tape, l []*Node) *Node {
		r0 := tp.Row(l[0], 0)
		r2 := tp.Row(l[0], 2)
		return tp.SumSquares(tp.StackRows([]*Node{r0, r2, r0}))
	})
}

func TestGradMeanRows(t *testing.T) {
	checkGrad(t, "meanrows", []*tensor.Matrix{rnd(4, 3, 25)}, func(tp *Tape, l []*Node) *Node {
		return tp.SumSquares(tp.MeanRows(l[0]))
	})
}

func TestGradL2NormalizeRows(t *testing.T) {
	checkGrad(t, "l2norm", []*tensor.Matrix{rnd(3, 5, 26), rnd(3, 5, 27)}, func(tp *Tape, l []*Node) *Node {
		return tp.SumAll(tp.Mul(tp.L2NormalizeRows(l[0]), l[1]))
	})
}

func TestGradSqDistHinge(t *testing.T) {
	checkGrad(t, "hinge", []*tensor.Matrix{rnd(1, 4, 28), rnd(1, 4, 29), rnd(1, 4, 30)}, func(tp *Tape, l []*Node) *Node {
		pos := tp.SqDist(l[0], l[1])
		neg := tp.SqDist(l[0], l[2])
		return tp.Hinge(5, pos, neg)
	})
}

func TestGradDeepComposite(t *testing.T) {
	// A miniature of the EHNA readout: attention → weighted rows → dense →
	// tanh → normalize → distance.
	checkGrad(t, "composite", []*tensor.Matrix{rnd(3, 4, 31), rnd(1, 3, 32), rnd(4, 4, 33), rnd(1, 4, 34)}, func(tp *Tape, l []*Node) *Node {
		att := tp.SoftmaxRow(l[1])
		weighted := tp.RowScale(l[0], att)
		mean := tp.MeanRows(weighted)
		h := tp.Tanh(tp.MatMul(mean, l[2]))
		z := tp.L2NormalizeRows(h)
		return tp.SqDist(z, l[3])
	})
}

func TestLeafAccumulatesAcrossUses(t *testing.T) {
	// Using a leaf twice must sum both gradient contributions.
	in := rnd(1, 3, 35)
	sink := tensor.New(1, 3)
	tp := New()
	x := tp.Leaf(in, sink)
	root := tp.SumSquares(tp.Add(x, x)) // d/dx sum((2x)^2) = 8x
	tp.Backward(root)
	for i, v := range in.Data {
		if math.Abs(sink.Data[i]-8*v) > 1e-9 {
			t.Fatalf("elem %d: got %g want %g", i, sink.Data[i], 8*v)
		}
	}
}

// gatherSink records the rows a Gather's backward delivers.
type gatherSink map[int][]float64

func (s gatherSink) AddRowGrad(id int, g []float64) {
	if s[id] == nil {
		s[id] = make([]float64, len(g))
	}
	for j, v := range g {
		s[id][j] += v
	}
}

// TestGatherScattersRowGradients looks up a row twice and a padding
// slot: the two uses must sum, the padding row must read as zero and
// deliver nothing.
func TestGatherScattersRowGradients(t *testing.T) {
	table := rnd(4, 3, 45)
	sink := gatherSink{}
	tp := New()
	x := tp.Gather(table, []int{2, -1, 0, 2}, sink)
	for _, v := range x.Value.Row(1) {
		if v != 0 {
			t.Fatal("padding row must be zero")
		}
	}
	tp.Backward(tp.SumSquares(x))
	if len(sink) != 2 {
		t.Fatalf("gradient delivered to %d rows, want 2", len(sink))
	}
	for j, v := range table.Row(2) {
		if math.Abs(sink[2][j]-4*v) > 1e-12 {
			t.Fatalf("row 2 elem %d: got %g want %g", j, sink[2][j], 4*v)
		}
	}
}

// TestRowsIsAView checks that a Rows node shares its parent's value and
// that gradient written through it reaches the parent's leaf.
func TestRowsIsAView(t *testing.T) {
	in := rnd(4, 3, 46)
	sink := tensor.New(4, 3)
	tp := New()
	x := tp.Leaf(in, sink)
	mid := tp.Rows(x, 1, 3)
	if &mid.Value.Data[0] != &in.Data[3] {
		t.Fatal("Rows must not copy")
	}
	tp.Backward(tp.SumSquares(mid))
	for i, v := range in.Data {
		want := 0.0
		if i >= 3 && i < 9 {
			want = 2 * v
		}
		if math.Abs(sink.Data[i]-want) > 1e-12 {
			t.Fatalf("elem %d: got %g want %g", i, sink.Data[i], want)
		}
	}
}

// mlpPass runs one forward/backward pass of a small graph and returns
// the loss; the gradient lands in g.
func mlpPass(tp *Tape, x, w, g *tensor.Matrix) float64 {
	g.Zero()
	out := tp.SumSquares(tp.Tanh(tp.MatMul(tp.Const(x), tp.Leaf(w, g))))
	tp.Backward(out)
	return Value(out)
}

// TestResetReusesTheArena runs passes of different sizes on one tape
// with a Reset between them: every pass must give the loss and gradient
// of a fresh tape (no stale value or gradient survives the rewind), and
// once the arena has grown to the largest pass a pass allocates only
// its backward closures.
func TestResetReusesTheArena(t *testing.T) {
	big, small := rnd(40, 64, 47), rnd(3, 64, 48)
	w := rnd(64, 64, 49)
	got, want := tensor.New(64, 64), tensor.New(64, 64)
	tp := New()
	for i, x := range []*tensor.Matrix{small, big, small, big} {
		tp.Reset()
		loss := mlpPass(tp, x, w, got)
		if ref := mlpPass(New(), x, w, want); loss != ref || !tensor.Equal(got, want, 0) {
			t.Fatalf("pass %d on a reused tape differs from a fresh tape: loss %g vs %g", i, loss, ref)
		}
	}
	if tp.Len() != 5 {
		t.Fatalf("Len after Reset + one pass = %d, want 5", tp.Len())
	}
	if raceEnabled {
		return // race detector instrumentation allocates
	}
	allocs := testing.AllocsPerRun(20, func() {
		tp.Reset()
		mlpPass(tp, big, w, got)
	})
	if allocs > 3 {
		t.Fatalf("a steady-state pass allocated %v times, want only its closures", allocs)
	}
}

// TestNoGradTapeRecordsConstants checks the forward-only tape: same
// values, no node requires a gradient, sinks stay untouched.
func TestNoGradTapeRecordsConstants(t *testing.T) {
	x, w := rnd(3, 4, 50), rnd(4, 4, 51)
	g := tensor.New(4, 4)
	rows := gatherSink{}
	build := func(tp *Tape) *Node {
		e := tp.Gather(x, []int{0, 2}, rows)
		return tp.SumSquares(tp.MatMul(tp.Add(e, tp.Rows(tp.Const(x), 0, 2)), tp.Leaf(w, g)))
	}
	ng := NewNoGrad()
	out := build(ng)
	if out.needs {
		t.Fatal("a node on a no-grad tape requires a gradient")
	}
	ng.Backward(out)
	if g.Sum() != 0 || len(rows) != 0 {
		t.Fatal("a no-grad tape delivered a gradient")
	}
	if ref := build(New()); Value(out) != Value(ref) {
		t.Fatalf("no-grad value %g != %g", Value(out), Value(ref))
	}
}

func TestConstGetsNoGradient(t *testing.T) {
	tp := New()
	c := tp.Const(rnd(2, 2, 37))
	root := tp.SumSquares(c)
	tp.Backward(root)
	if c.grad != nil {
		t.Fatal("const node must not receive a gradient")
	}
}

func TestBackwardNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := New()
	x := tp.Const(rnd(2, 2, 38))
	tp.Backward(x)
}

func TestValueHelpers(t *testing.T) {
	tp := New()
	n := tp.Const(tensor.FromSlice(1, 1, []float64{3.5}))
	if Value(n) != 3.5 {
		t.Fatal("Value")
	}
}

func TestTapeLen(t *testing.T) {
	tp := New()
	a := tp.Const(rnd(1, 1, 39))
	_ = tp.Add(a, a)
	if tp.Len() != 2 {
		t.Fatalf("Len = %d want 2", tp.Len())
	}
}

func BenchmarkBackwardMLP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w1 := tensor.Randn(64, 64, 0.1, rng)
	w2 := tensor.Randn(64, 64, 0.1, rng)
	x := tensor.Randn(8, 64, 1, rng)
	g1 := tensor.New(64, 64)
	g2 := tensor.New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g1.Zero()
		g2.Zero()
		tp := New()
		w1n := tp.Leaf(w1, g1)
		w2n := tp.Leaf(w2, g2)
		h := tp.Tanh(tp.MatMul(tp.Const(x), w1n))
		out := tp.SumSquares(tp.MatMul(h, w2n))
		tp.Backward(out)
	}
}

func TestGradConcatScalars(t *testing.T) {
	checkGrad(t, "concatscalars", []*tensor.Matrix{rnd(1, 4, 43), rnd(1, 4, 44)}, func(tp *Tape, l []*Node) *Node {
		parts := make([]*Node, 3)
		for i := range parts {
			parts[i] = tp.SqDist(tp.Scale(l[0], float64(i+1)), l[1])
		}
		row := tp.ConcatScalars(parts)
		return tp.SumSquares(tp.SoftmaxRow(row))
	})
}
