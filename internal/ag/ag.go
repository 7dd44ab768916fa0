// Package ag implements reverse-mode automatic differentiation over dense
// matrices (a "tape" or Wengert list). It is the training substrate that
// replaces the Python autodiff stack used by the original EHNA paper.
//
// Usage: create a Tape, build the computation with the Tape's operator
// methods, then call Backward on a scalar (1×1) root node. Gradients of
// Leaf nodes accumulate straight into caller-owned sink matrices, which
// optimizers (internal/nn) then consume.
//
// A Tape is a bump arena: nodes, their values and their gradients (and
// LSTMSeq's float32 working set) live in slabs the tape owns, so a
// forward/backward pass allocates almost nothing once the slabs have
// grown to the pass's size. Reset rewinds the arena for the next pass;
// every Node and matrix obtained from the tape before the Reset is
// invalid after it. A tape that is never reset (one New per pass) stays
// correct and simply lets the collector take the slabs.
//
// Every operator's gradient is verified against central finite differences
// in ag_test.go.
package ag

import (
	"fmt"
	"math"
	"unsafe"

	"ehna/internal/tensor"
	"ehna/internal/vecmath"
)

// Node is one value in the computation graph.
type Node struct {
	Value *tensor.Matrix
	grad  *tensor.Matrix
	back  func(n *Node)
	needs bool // whether any ancestor is a Leaf (gradient required)
	tp    *Tape
	// Headers Value and grad point at when the data is the tape's own,
	// so recording a node allocates nothing.
	val, g tensor.Matrix
}

// Grad returns the accumulated gradient of n, allocating it (zeroed, on
// the tape) on first use.
func (n *Node) Grad() *tensor.Matrix {
	if n.grad == nil {
		n.g = tensor.Matrix{Rows: n.Value.Rows, Cols: n.Value.Cols, Data: n.tp.zeros(len(n.Value.Data))}
		n.grad = &n.g
	}
	return n.grad
}

const (
	nodeSlab      = 64      // nodes per slab
	minFloatChunk = 1 << 12 // floats in a tape's first chunk (32 KB)
)

// Tape records nodes in topological (creation) order.
type Tape struct {
	noGrad bool
	nodes  [][]Node // slabs of nodeSlab nodes; a slab never moves
	n      int      // nodes recorded since the last Reset
	chunks [][]float64
	chunk  int // chunk being filled
	off    int // floats handed out of it
}

// New returns an empty tape. It owns no memory until the first node is
// recorded.
func New() *Tape { return &Tape{} }

// NewNoGrad returns a forward-only tape: Leaf and Gather record
// constants, so no node requires a gradient, no operator keeps a
// backward closure and Backward has nothing to propagate.
func NewNoGrad() *Tape { return &Tape{noGrad: true} }

// Reset forgets every recorded node and rewinds the arena, keeping its
// memory for the next pass.
func (t *Tape) Reset() {
	if len(t.chunks) > 1 {
		// The pass outgrew the first chunk: replace the chunks by one
		// that holds what the pass used and a quarter more, so that
		// the steady state is a single slab sized to the largest pass.
		used := t.off
		for _, c := range t.chunks[:t.chunk] {
			used += len(c)
		}
		t.chunks = [][]float64{make([]float64, used+used/4)}
	}
	t.n, t.chunk, t.off = 0, 0, 0
}

// Len returns the number of recorded nodes (useful for instrumentation).
func (t *Tape) Len() int { return t.n }

// alloc returns n floats of arena memory with arbitrary contents, for
// buffers the caller overwrites in full.
func (t *Tape) alloc(n int) []float64 {
	for ; t.chunk < len(t.chunks); t.chunk, t.off = t.chunk+1, 0 {
		if c := t.chunks[t.chunk]; t.off+n <= len(c) {
			s := c[t.off : t.off+n : t.off+n]
			t.off += n
			return s
		}
	}
	// Grow by half of what the tape holds, so that a tape that is
	// never reset ends at most half again as large as its one pass.
	size := minFloatChunk
	for _, c := range t.chunks {
		size += len(c) / 2
	}
	t.chunks = append(t.chunks, make([]float64, max(n, size)))
	t.off = n
	return t.chunks[t.chunk][:n:n]
}

// alloc32 is alloc for LSTMSeq's float32 buffers: arena memory viewed
// as float32, two to a float64. Sharing the float64 chunks means the
// float32 working set grows, coalesces and rewinds with the rest of the
// pass; an arena of its own would pay its own growth allocations every
// time a tape is built.
func (t *Tape) alloc32(n int) []float32 {
	if n == 0 {
		return nil
	}
	s := t.alloc((n + 1) / 2)
	return unsafe.Slice((*float32)(unsafe.Pointer(&s[0])), n)
}

// zeros returns n zeroed floats of arena memory.
func (t *Tape) zeros(n int) []float64 {
	s := t.alloc(n)
	clear(s)
	return s
}

// zeros32 is zeros for float32 buffers.
func (t *Tape) zeros32(n int) []float32 {
	s := t.alloc32(n)
	clear(s)
	return s
}

// record appends a blank node.
func (t *Tape) record() *Node {
	slab, i := t.n/nodeSlab, t.n%nodeSlab
	if slab == len(t.nodes) {
		t.nodes = append(t.nodes, make([]Node, nodeSlab))
	}
	n := &t.nodes[slab][i]
	*n = Node{tp: t}
	t.n++
	return n
}

// node records a rows×cols node whose zeroed value lives on the tape.
func (t *Tape) node(rows, cols int, needs bool) *Node {
	n := t.rawNode(rows, cols, needs)
	for i := range n.val.Data {
		n.val.Data[i] = 0
	}
	return n
}

// rawNode is node for an operator that overwrites the whole value: the
// value's memory has arbitrary contents.
func (t *Tape) rawNode(rows, cols int, needs bool) *Node {
	n := t.record()
	n.val = tensor.Matrix{Rows: rows, Cols: cols, Data: t.alloc(rows * cols)}
	n.Value = &n.val
	n.needs = needs
	return n
}

// like records a node shaped like a.
func (t *Tape) like(a *Node, needs bool) *Node {
	return t.node(a.Value.Rows, a.Value.Cols, needs)
}

// Const records a node that requires no gradient.
func (t *Tape) Const(v *tensor.Matrix) *Node {
	n := t.record()
	n.Value = v
	return n
}

// Leaf records a differentiable input whose gradient accumulates into
// sink (same shape as v). The caller owns both matrices.
func (t *Tape) Leaf(v, sink *tensor.Matrix) *Node {
	if v.Rows != sink.Rows || v.Cols != sink.Cols {
		panic(fmt.Sprintf("ag: Leaf sink shape %dx%d != value %dx%d", sink.Rows, sink.Cols, v.Rows, v.Cols))
	}
	n := t.Const(v)
	if !t.noGrad {
		n.needs, n.grad = true, sink
	}
	return n
}

// RowSink receives the gradient rows of a Gather.
type RowSink interface {
	// AddRowGrad adds g to the gradient of table row id.
	AddRowGrad(id int, g []float64)
}

// Gather records rows idx of table as a len(idx)×cols node; a negative
// index stands for padding and yields a zero row. At backward time the
// gradient of every real row is handed to sink. This is the embedding
// lookup: the gradient of a |V|×d table is a handful of rows.
func (t *Tape) Gather(table *tensor.Matrix, idx []int, sink RowSink) *Node {
	n := t.node(len(idx), table.Cols, !t.noGrad)
	for i, id := range idx {
		if id >= 0 {
			copy(n.Value.Row(i), table.Row(id))
		}
	}
	if n.needs {
		n.back = func(n *Node) {
			for i, id := range idx {
				if id >= 0 {
					sink.AddRowGrad(id, n.grad.Row(i))
				}
			}
		}
	}
	return n
}

// Backward seeds the gradient of the scalar root with 1 and propagates
// gradients to all leaves in reverse topological order.
func (t *Tape) Backward(root *Node) {
	if root.Value.Rows != 1 || root.Value.Cols != 1 {
		panic(fmt.Sprintf("ag: Backward root must be 1x1, got %dx%d", root.Value.Rows, root.Value.Cols))
	}
	if !root.needs {
		return
	}
	root.Grad().Data[0] = 1
	for i := t.n - 1; i >= 0; i-- {
		n := &t.nodes[i/nodeSlab][i%nodeSlab]
		if n.grad != nil && n.back != nil {
			n.back(n)
		}
	}
}

func needsAny(parents ...*Node) bool {
	for _, p := range parents {
		if p.needs {
			return true
		}
	}
	return false
}

func sameShape(op string, a, b *Node) {
	if a.Value.Rows != b.Value.Rows || a.Value.Cols != b.Value.Cols {
		panic(fmt.Sprintf("ag: %s shape mismatch %dx%d vs %dx%d", op, a.Value.Rows, a.Value.Cols, b.Value.Rows, b.Value.Cols))
	}
}

// Add returns a + b.
func (t *Tape) Add(a, b *Node) *Node {
	sameShape("Add", a, b)
	n := t.like(a, needsAny(a, b))
	for i, v := range a.Value.Data {
		n.Value.Data[i] = v + b.Value.Data[i]
	}
	if n.needs {
		n.back = func(n *Node) {
			if a.needs {
				tensor.AddInPlace(a.Grad(), n.grad)
			}
			if b.needs {
				tensor.AddInPlace(b.Grad(), n.grad)
			}
		}
	}
	return n
}

// Sub returns a − b.
func (t *Tape) Sub(a, b *Node) *Node {
	sameShape("Sub", a, b)
	n := t.like(a, needsAny(a, b))
	for i, v := range a.Value.Data {
		n.Value.Data[i] = v - b.Value.Data[i]
	}
	if n.needs {
		n.back = func(n *Node) {
			if a.needs {
				tensor.AddInPlace(a.Grad(), n.grad)
			}
			if b.needs {
				tensor.AxpyInPlace(b.Grad(), -1, n.grad)
			}
		}
	}
	return n
}

// Mul returns the element-wise product a ⊙ b.
func (t *Tape) Mul(a, b *Node) *Node {
	sameShape("Mul", a, b)
	n := t.like(a, needsAny(a, b))
	for i, v := range a.Value.Data {
		n.Value.Data[i] = v * b.Value.Data[i]
	}
	if n.needs {
		n.back = func(n *Node) {
			if a.needs {
				ag := a.Grad().Data
				for i, g := range n.grad.Data {
					ag[i] += g * b.Value.Data[i]
				}
			}
			if b.needs {
				bg := b.Grad().Data
				for i, g := range n.grad.Data {
					bg[i] += g * a.Value.Data[i]
				}
			}
		}
	}
	return n
}

// Scale returns c·a for a compile-time constant c.
func (t *Tape) Scale(a *Node, c float64) *Node {
	n := t.like(a, a.needs)
	for i, v := range a.Value.Data {
		n.Value.Data[i] = v * c
	}
	if n.needs {
		n.back = func(n *Node) {
			tensor.AxpyInPlace(a.Grad(), c, n.grad)
		}
	}
	return n
}

// AddConst returns a + c element-wise for a constant c.
func (t *Tape) AddConst(a *Node, c float64) *Node {
	n := t.like(a, a.needs)
	for i, v := range a.Value.Data {
		n.Value.Data[i] = v + c
	}
	if n.needs {
		n.back = func(n *Node) {
			tensor.AddInPlace(a.Grad(), n.grad)
		}
	}
	return n
}

// MatMul returns a·b.
func (t *Tape) MatMul(a, b *Node) *Node {
	n := t.node(a.Value.Rows, b.Value.Cols, needsAny(a, b))
	tensor.AddMatMul(n.Value, a.Value, b.Value)
	if n.needs {
		n.back = func(n *Node) {
			if a.needs {
				tensor.AddMatMulBT(a.Grad(), n.grad, b.Value)
			}
			if b.needs {
				tensor.AddMatMulAT(b.Grad(), a.Value, n.grad)
			}
		}
	}
	return n
}

// AddRowBroadcast returns x with the 1×cols bias node added to every row.
func (t *Tape) AddRowBroadcast(x, bias *Node) *Node {
	if bias.Value.Rows != 1 || bias.Value.Cols != x.Value.Cols {
		panic(fmt.Sprintf("ag: AddRowBroadcast bias %dx%d for %dx%d", bias.Value.Rows, bias.Value.Cols, x.Value.Rows, x.Value.Cols))
	}
	n := t.like(x, needsAny(x, bias))
	for i := 0; i < x.Value.Rows; i++ {
		vrow := n.Value.Row(i)
		for j, v := range x.Value.Row(i) {
			vrow[j] = v + bias.Value.Data[j]
		}
	}
	if n.needs {
		n.back = func(n *Node) {
			if x.needs {
				tensor.AddInPlace(x.Grad(), n.grad)
			}
			if bias.needs {
				bg := bias.Grad().Data
				for i := 0; i < n.grad.Rows; i++ {
					vecmath.Add(bg, n.grad.Row(i))
				}
			}
		}
	}
	return n
}

// Sigmoid returns the logistic function applied element-wise.
func (t *Tape) Sigmoid(a *Node) *Node {
	n := t.like(a, a.needs)
	for i, v := range a.Value.Data {
		n.Value.Data[i] = vecmath.Sigmoid(v)
	}
	if n.needs {
		n.back = func(n *Node) {
			g := a.Grad()
			for i, s := range n.Value.Data {
				g.Data[i] += n.grad.Data[i] * s * (1 - s)
			}
		}
	}
	return n
}

// Tanh returns tanh applied element-wise.
func (t *Tape) Tanh(a *Node) *Node {
	n := t.like(a, a.needs)
	for i, v := range a.Value.Data {
		n.Value.Data[i] = math.Tanh(v)
	}
	if n.needs {
		n.back = func(n *Node) {
			g := a.Grad()
			for i, th := range n.Value.Data {
				g.Data[i] += n.grad.Data[i] * (1 - th*th)
			}
		}
	}
	return n
}

// ReLU returns max(0, x) element-wise.
func (t *Tape) ReLU(a *Node) *Node {
	n := t.like(a, a.needs)
	for i, v := range a.Value.Data {
		if v > 0 {
			n.Value.Data[i] = v
		}
	}
	if n.needs {
		n.back = func(n *Node) {
			g := a.Grad()
			for i, v := range a.Value.Data {
				if v > 0 {
					g.Data[i] += n.grad.Data[i]
				}
			}
		}
	}
	return n
}

// SoftmaxRow returns softmax of a 1×n row vector.
func (t *Tape) SoftmaxRow(a *Node) *Node {
	if a.Value.Rows != 1 {
		panic("ag: SoftmaxRow expects a 1×n node")
	}
	n := t.like(a, a.needs)
	val := n.Value
	tensor.SoftmaxInto(val.Data, a.Value.Data)
	if n.needs {
		n.back = func(n *Node) {
			// dL/dx_i = s_i (dL/ds_i − Σ_j dL/ds_j s_j)
			dot := vecmath.Dot(n.grad.Data, val.Data)
			g := a.Grad()
			for i, s := range val.Data {
				g.Data[i] += s * (n.grad.Data[i] - dot)
			}
		}
	}
	return n
}

// ConcatCols returns [a ‖ b].
func (t *Tape) ConcatCols(a, b *Node) *Node {
	if a.Value.Rows != b.Value.Rows {
		panic(fmt.Sprintf("ag: ConcatCols rows %d != %d", a.Value.Rows, b.Value.Rows))
	}
	ac := a.Value.Cols
	n := t.node(a.Value.Rows, ac+b.Value.Cols, needsAny(a, b))
	for i := 0; i < n.Value.Rows; i++ {
		copy(n.Value.Row(i)[:ac], a.Value.Row(i))
		copy(n.Value.Row(i)[ac:], b.Value.Row(i))
	}
	if n.needs {
		n.back = func(n *Node) {
			for i := 0; i < n.Value.Rows; i++ {
				grow := n.grad.Row(i)
				if a.needs {
					vecmath.Add(a.Grad().Row(i), grow[:ac])
				}
				if b.needs {
					vecmath.Add(b.Grad().Row(i), grow[ac:])
				}
			}
		}
	}
	return n
}

// RowScale scales row i of x (n×d) by element i of s (1×n):
// out[i,:] = s[i]·x[i,:]. This is the attention-weighting primitive.
func (t *Tape) RowScale(x, s *Node) *Node {
	if s.Value.Rows != 1 || s.Value.Cols != x.Value.Rows {
		panic(fmt.Sprintf("ag: RowScale s %dx%d for x %dx%d", s.Value.Rows, s.Value.Cols, x.Value.Rows, x.Value.Cols))
	}
	n := t.like(x, needsAny(x, s))
	for i := 0; i < x.Value.Rows; i++ {
		si := s.Value.Data[i]
		vrow := n.Value.Row(i)
		for j, v := range x.Value.Row(i) {
			vrow[j] = si * v
		}
	}
	if n.needs {
		n.back = func(n *Node) {
			for i := 0; i < x.Value.Rows; i++ {
				grow := n.grad.Row(i)
				if x.needs {
					vecmath.Axpy(x.Grad().Row(i), s.Value.Data[i], grow)
				}
				if s.needs {
					s.Grad().Data[i] += vecmath.Dot(grow, x.Value.Row(i))
				}
			}
		}
	}
	return n
}

// Rows returns rows [lo, hi) of x as a view: the node's value and
// gradient are windows onto x's, so it costs no copy and has no
// backward step of its own.
func (t *Tape) Rows(x *Node, lo, hi int) *Node {
	if lo < 0 || hi > x.Value.Rows || lo >= hi {
		panic(fmt.Sprintf("ag: Rows [%d,%d) of %d rows", lo, hi, x.Value.Rows))
	}
	c := x.Value.Cols
	n := t.record()
	n.val = tensor.Matrix{Rows: hi - lo, Cols: c, Data: x.Value.Data[lo*c : hi*c]}
	n.Value = &n.val
	if n.needs = x.needs; n.needs {
		n.g = tensor.Matrix{Rows: hi - lo, Cols: c, Data: x.Grad().Data[lo*c : hi*c]}
		n.grad = &n.g
	}
	return n
}

// Row returns row i of x as a 1×cols view (see Rows).
func (t *Tape) Row(x *Node, i int) *Node { return t.Rows(x, i, i+1) }

// StackRows stacks 1×c nodes into an n×c node.
func (t *Tape) StackRows(rows []*Node) *Node {
	if len(rows) == 0 {
		panic("ag: StackRows of zero rows")
	}
	c := rows[0].Value.Cols
	n := t.node(len(rows), c, needsAny(rows...))
	for i, r := range rows {
		if r.Value.Rows != 1 || r.Value.Cols != c {
			panic(fmt.Sprintf("ag: StackRows row %d is %dx%d want 1x%d", i, r.Value.Rows, r.Value.Cols, c))
		}
		copy(n.Value.Row(i), r.Value.Data)
	}
	if n.needs {
		n.back = func(n *Node) {
			for i, r := range rows {
				if r.needs {
					vecmath.Add(r.Grad().Data, n.grad.Row(i))
				}
			}
		}
	}
	return n
}

// SumSquares returns the 1×1 sum of squared elements of x.
func (t *Tape) SumSquares(x *Node) *Node {
	n := t.node(1, 1, x.needs)
	n.Value.Data[0] = vecmath.SquaredL2(x.Value.Data)
	if n.needs {
		n.back = func(n *Node) {
			vecmath.Axpy(x.Grad().Data, 2*n.grad.Data[0], x.Value.Data)
		}
	}
	return n
}

// MeanRows returns the 1×cols column means of x.
func (t *Tape) MeanRows(x *Node) *Node {
	n := t.node(1, x.Value.Cols, x.needs)
	inv := 1 / float64(x.Value.Rows)
	for i := 0; i < x.Value.Rows; i++ {
		vecmath.Axpy(n.Value.Data, inv, x.Value.Row(i))
	}
	if n.needs {
		n.back = func(n *Node) {
			xg := x.Grad()
			for i := 0; i < x.Value.Rows; i++ {
				vecmath.Axpy(xg.Row(i), inv, n.grad.Data)
			}
		}
	}
	return n
}

// L2NormalizeRows returns x with every row divided by its Euclidean
// norm, with ε guarding zero input.
func (t *Tape) L2NormalizeRows(x *Node) *Node {
	const eps = 1e-12
	n := t.like(x, x.needs)
	norms := t.alloc(x.Value.Rows)
	for i := range norms {
		norms[i] = vecmath.Norm(x.Value.Row(i)) + eps
		vecmath.Axpy(n.Value.Row(i), 1/norms[i], x.Value.Row(i))
	}
	if n.needs {
		n.back = func(n *Node) {
			// d(x/‖x‖)/dx = (I − y·yᵀ)/‖x‖ where y = x/‖x‖
			for i, norm := range norms {
				g, y := n.grad.Row(i), n.Value.Row(i)
				dot := vecmath.Dot(g, y)
				xg := x.Grad().Row(i)
				for j := range xg {
					xg[j] += (g[j] - dot*y[j]) / norm
				}
			}
		}
	}
	return n
}

// SqDist returns the 1×1 squared Euclidean distance ‖a−b‖² of two
// equal-shape nodes. Composite helper used by the EHNA loss and attention.
func (t *Tape) SqDist(a, b *Node) *Node {
	return t.SumSquares(t.Sub(a, b))
}

// Hinge returns max(0, margin + pos − neg) for 1×1 nodes pos and neg.
func (t *Tape) Hinge(margin float64, pos, neg *Node) *Node {
	return t.ReLU(t.AddConst(t.Sub(pos, neg), margin))
}

// Value returns the scalar value of a 1×1 node.
func Value(n *Node) float64 {
	if n.Value.Rows != 1 || n.Value.Cols != 1 {
		panic("ag: Value expects a 1×1 node")
	}
	return n.Value.Data[0]
}

// ConcatScalars concatenates 1×1 nodes into a single 1×n row (used to
// assemble attention score vectors before SoftmaxRow).
func (t *Tape) ConcatScalars(scalars []*Node) *Node {
	if len(scalars) == 0 {
		panic("ag: ConcatScalars of zero nodes")
	}
	n := t.node(1, len(scalars), needsAny(scalars...))
	for i, s := range scalars {
		if s.Value.Rows != 1 || s.Value.Cols != 1 {
			panic(fmt.Sprintf("ag: ConcatScalars element %d is %dx%d", i, s.Value.Rows, s.Value.Cols))
		}
		n.Value.Data[i] = s.Value.Data[0]
	}
	if n.needs {
		n.back = func(n *Node) {
			for i, s := range scalars {
				if s.needs {
					s.Grad().Data[0] += n.grad.Data[i]
				}
			}
		}
	}
	return n
}
