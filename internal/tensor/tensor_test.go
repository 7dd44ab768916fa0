package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ehna/internal/vecmath"
)

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

func TestFromSlice(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("bad layout: %v", m.Data)
	}
}

func TestFromSliceWrongLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Fatalf("bad FromRows: %v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	m.SetRow(0, []float64{9, 8, 7})
	if m.At(0, 0) != 9 || m.At(0, 2) != 7 {
		t.Fatal("SetRow failed")
	}
	r := m.Row(0)
	r[0] = 5
	if m.At(0, 0) != 5 {
		t.Fatal("Row must be a view")
	}
}

// MatMul returns a·b, one Axpy per nonzero of a: the plain product the
// blocked AddMatMul variants are checked against.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", a.Cols, b.Rows))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k, av := range a.Row(i) {
			vecmath.Axpy(out.Row(i), av, b.Row(k))
		}
	}
	return out
}

func TestMatMul(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 2))
}

// transpose is the oracle the transposed products are checked against.
func transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(4, 3, 1, rng)
	b := Randn(4, 5, 1, rng)
	got := MatMulATransposed(a, b)
	want := MatMul(transpose(a), b)
	if !Equal(got, want, 1e-12) {
		t.Fatal("MatMulATransposed mismatch")
	}
}

// TestAddMatMulVariants checks the three accumulating products against
// the allocating ones, on a non-zero accumulator, and their shape checks.
func TestAddMatMulVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b, bt, at := Randn(5, 7, 1, rng), Randn(7, 9, 1, rng), Randn(9, 7, 1, rng), Randn(7, 5, 1, rng)
	seed := Randn(5, 9, 1, rng)
	for name, tc := range map[string]struct {
		run  func(out *Matrix)
		want *Matrix
	}{
		"AddMatMul":   {func(out *Matrix) { AddMatMul(out, a, b) }, MatMul(a, b)},
		"AddMatMulAT": {func(out *Matrix) { AddMatMulAT(out, at, b) }, MatMulATransposed(at, b)},
		"AddMatMulBT": {func(out *Matrix) { AddMatMulBT(out, a, bt) }, MatMul(a, transpose(bt))},
	} {
		out, want := seed.Clone(), seed.Clone()
		tc.run(out)
		AddInPlace(want, tc.want)
		if !Equal(out, want, 1e-12) {
			t.Fatalf("%s: out += product mismatch", name)
		}
	}
	for name, f := range map[string]func(){
		"AddMatMul":   func() { AddMatMul(New(5, 9), a, bt) },
		"AddMatMulAT": func() { AddMatMulAT(New(5, 9), a, b) },
		"AddMatMulBT": func() { AddMatMulBT(New(5, 9), a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected a shape panic", name)
				}
			}()
			f()
		}()
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(1, 2, []float64{3, 4})
	AddInPlace(a, b)
	if a.At(0, 1) != 6 {
		t.Fatal("AddInPlace")
	}
	AxpyInPlace(a, 2, b)
	if a.At(0, 0) != 10 {
		t.Fatal("AxpyInPlace")
	}
	ScaleInPlace(a, 0.5)
	if a.At(0, 0) != 5 {
		t.Fatal("ScaleInPlace")
	}
}

func TestSigmoidScalarStable(t *testing.T) {
	if v := SigmoidScalar(1000); v != 1 {
		t.Fatalf("sigmoid(1000) = %v", v)
	}
	if v := SigmoidScalar(-1000); v != 0 {
		t.Fatalf("sigmoid(-1000) = %v", v)
	}
	// Symmetry: sigma(-x) = 1 - sigma(x).
	for _, x := range []float64{-3, -0.5, 0, 0.7, 5} {
		if d := SigmoidScalar(-x) + SigmoidScalar(x) - 1; math.Abs(d) > 1e-12 {
			t.Fatalf("symmetry broken at %v: %v", x, d)
		}
	}
}

func TestSoftmaxProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for i := range vals {
			// Keep values in a sane range to avoid Inf inputs from quick.
			vals[i] = math.Mod(vals[i], 50)
			if math.IsNaN(vals[i]) {
				vals[i] = 0
			}
		}
		out := make([]float64, len(vals))
		SoftmaxInto(out, vals)
		var sum float64
		for _, v := range out {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReductions(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if !Equal(SumRows(m), FromSlice(1, 3, []float64{5, 7, 9}), 0) {
		t.Fatal("SumRows")
	}
	if !Equal(MeanRows(m), FromSlice(1, 3, []float64{2.5, 3.5, 4.5}), 0) {
		t.Fatal("MeanRows")
	}
	if m.Sum() != 21 {
		t.Fatal("Sum")
	}
}

func TestDotAndNorms(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	if DotVec(a.Data, b.Data) != 32 {
		t.Fatal("DotVec")
	}
	if math.Abs(L2NormVec([]float64{3, 4})-5) > 1e-12 {
		t.Fatal("L2NormVec")
	}
	if SqDistVec(a.Data, b.Data) != 27 {
		t.Fatal("SqDistVec")
	}
}

func TestConcatCols(t *testing.T) {
	a := FromSlice(2, 1, []float64{1, 2})
	b := FromSlice(2, 2, []float64{3, 4, 5, 6})
	got := ConcatCols(a, b)
	want := FromSlice(2, 3, []float64{1, 3, 4, 2, 5, 6})
	if !Equal(got, want, 0) {
		t.Fatalf("got %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a := Randn(3, 4, 1, rng)
		b := Randn(4, 2, 1, rng)
		c := Randn(2, 5, 1, rng)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		if !Equal(left, right, 1e-9) {
			t.Fatal("matmul associativity violated")
		}
	}
}

func TestRandnDeterministic(t *testing.T) {
	a := Randn(2, 2, 1, rand.New(rand.NewSource(42)))
	b := Randn(2, 2, 1, rand.New(rand.NewSource(42)))
	if !Equal(a, b, 0) {
		t.Fatal("same seed must give same matrix")
	}
}

func TestUniformRange(t *testing.T) {
	m := Uniform(10, 10, -0.5, 0.5, rand.New(rand.NewSource(3)))
	for _, v := range m.Data {
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("uniform value out of range: %v", v)
		}
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(128, 128, 1, rng)
	y := Randn(128, 128, 1, rng)
	out := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Zero()
		AddMatMul(out, x, y)
	}
}
