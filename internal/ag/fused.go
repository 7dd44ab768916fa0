// Fused tape operators for the training hot path.
//
// EHNA's aggregation runs k walks of ℓ nodes through a stacked LSTM at
// two levels, for 2+Q targets per training edge. Recorded one timestep
// and one walk at a time that is ~1,500 batch-1 LSTM steps and ~3,500
// scalar attention nodes per edge. The operators here record a whole
// level as one node each: LSTMSeq runs a layer over a time-major batch
// of ragged sequences, Attend computes one attention level for the same
// batch, and LayerNorm normalizes every row of the result. Each has a
// handwritten backward, verified in fused_test.go against the unfused
// composition and central finite differences — LSTMSeq, which computes
// in float32, against the float64 composition only, which is itself
// checked by central differences.
//
// Time-major batch layout: T steps of n sequences are a (T·n)×d matrix
// whose row t·n+r is step t of sequence r. Sequence r has lens[r] ≥ 1
// real steps; the rows after them are padding.
package ag

import (
	"fmt"
	"math"

	"ehna/internal/tensor"
	"ehna/internal/vecmath"
)

// LSTMWeights binds the twelve LSTM gate parameters (already recorded
// on the tape, typically via nn.Param.Node) for an LSTMSeq call.
// W* are in×hidden, U* are hidden×hidden, B* are 1×hidden.
type LSTMWeights struct {
	Wi, Ui, Bi *Node
	Wf, Uf, Bf *Node
	Wo, Uo, Bo *Node
	Wg, Ug, Bg *Node
}

// gates lists the weights in packed order: the four gates' columns sit
// side by side as [i | f | o | g].
func (w LSTMWeights) gates() [4][3]*Node {
	return [4][3]*Node{{w.Wi, w.Ui, w.Bi}, {w.Wf, w.Uf, w.Bf}, {w.Wo, w.Uo, w.Bo}, {w.Wg, w.Ug, w.Bg}}
}

// seqShape validates a time-major batch and returns its sequence count.
func seqShape(op string, rows, T int, lens []int) int {
	if T < 1 || rows == 0 || rows%T != 0 {
		panic(fmt.Sprintf("ag: %s of %d rows is not a batch of %d steps", op, rows, T))
	}
	n := rows / T
	if lens != nil && len(lens) != n {
		panic(fmt.Sprintf("ag: %s got %d lengths for %d sequences", op, len(lens), n))
	}
	for _, l := range lens {
		if l < 1 || l > T {
			panic(fmt.Sprintf("ag: %s sequence length %d outside [1,%d]", op, l, T))
		}
	}
	return n
}

// seqLen returns the number of real steps of sequence r.
func seqLen(lens []int, r, T int) int {
	if lens == nil {
		return T
	}
	return lens[r]
}

// LSTMSeq runs one LSTM layer
//
//	i = σ(x·Wi + h·Ui + bi)    f = σ(x·Wf + h·Uf + bf)
//	o = σ(x·Wo + h·Uo + bo)    g = tanh(x·Wg + h·Ug + bg)
//	c' = f⊙c + i⊙g             h' = o⊙tanh(c')
//
// from a zero state over the time-major batch x ((T·n)×in; lens nil
// means every sequence has T steps) and returns every step's hidden
// state in the same layout ((T·n)×hidden). A sequence carries its state
// unchanged through its padding steps, so the last T-block holds each
// sequence's final state, and padding neither reads x nor receives
// gradient.
//
// The op computes in float32 over float64 master weights, in the sense
// of mixed-precision training: it narrows the weights and x on entry,
// keeps its whole working set (packed weights, gate activations, cell
// states, the float32 copy of the hidden states the recurrence reads,
// the pre-activation gradients) in float32 buffers on the tape
// (Tape.alloc32, rewound by Reset), and widens on exit — the output
// node, and dx, the weight gradients and the bias gradient as it adds
// them to the float64 gradients. The parameters, the optimizer state
// and every other node stay float64, and the op-by-op float64
// composition of Sigmoid and Tanh is the oracle it is held to
// (fused_test.go, internal/ehna/reference_test.go). Each row of the
// batch is computed by the same instructions whatever rows share it, so
// a sequence's output does not depend on its batch, bit for bit.
//
// The four gates are packed side by side into one in×4h and one h×4h
// matrix per call, so the input projection of all T steps is a single
// product and each step adds one n×h · h×4h product (vecmath.GemmNN32).
// A row's gates are then activated as blocks (vecmath.SigmoidInto32
// over [i|f|o], vecmath.TanhInto32 over g and over the new cell
// state). The backward pass keeps the pre-activation gradients of all
// steps and forms the weight gradients as two products per call (xᵀ·dpre
// and h₋₁ᵀ·dpre) in place of one rank-1 update per step, gate and
// sequence; x carries a column of ones, so the first of them also
// yields the bias gradient, Σ dpre over the rows.
func (t *Tape) LSTMSeq(w LSTMWeights, x *Node, lens []int, T int) *Node {
	n := seqShape("LSTMSeq", x.Value.Rows, T, lens)
	in, h := x.Value.Cols, w.Bi.Value.Cols
	gates := w.gates()
	for _, g := range gates {
		if g[0].Value.Rows != in || g[0].Value.Cols != h || g[1].Value.Rows != h || g[1].Value.Cols != h || len(g[2].Value.Data) != h {
			panic(fmt.Sprintf("ag: LSTMSeq weights %dx%d/%dx%d for input %d hidden %d",
				g[0].Value.Rows, g[0].Value.Cols, g[1].Value.Rows, g[1].Value.Cols, in, h))
		}
	}
	h4, rows := 4*h, T*n

	// Pack: wp is in×4h, up is h×4h.
	wp, up, bias := t.alloc32(in*h4), t.alloc32(h*h4), t.alloc32(h4)
	for gi, g := range gates {
		packGate(wp, g[0].Value, gi*h, h4)
		packGate(up, g[1].Value, gi*h, h4)
		packGate(bias, g[2].Value, gi*h, h4)
	}
	// x with a column of ones after its in features (leading dimension
	// ldx): the forward product reads the first in columns, the weight
	// gradient all of them.
	ldx := in + 1
	xs := t.alloc32(rows * ldx)
	for r := 0; r < rows; r++ {
		vecmath.F64To32(xs[r*ldx:r*ldx+in], x.Value.Row(r))
		xs[r*ldx+in] = 1
	}

	needs := x.needs
	for _, g := range gates {
		needs = needs || needsAny(g[:]...)
	}
	act := t.alloc32(rows * h4) // gate activations [i|f|o|g] per row
	cs := t.alloc32(rows * h)   // cell state after each step
	tc := t.alloc32(rows * h)   // tanh of it
	hs := t.alloc32(rows * h)   // hidden state after each step

	for r := 0; r < rows; r++ {
		copy(act[r*h4:(r+1)*h4], bias)
	}
	vecmath.GemmNN32(act, h4, xs, ldx, wp, h4, rows, h4, in)
	for s := 0; s < T; s++ {
		lo := s * n
		if s > 0 {
			vecmath.GemmNN32(act[lo*h4:], h4, hs[(lo-n)*h:], h, up, h4, n, h4, h)
		}
		for r := 0; r < n; r++ {
			row := lo + r
			at, prev := row*h, (row-n)*h // this row's state and the step before's
			c, tcr, hr := cs[at:at+h], tc[at:at+h], hs[at:at+h]
			if s >= seqLen(lens, r, T) {
				copy(c, cs[prev:prev+h])
				copy(tcr, tc[prev:prev+h])
				copy(hr, hs[prev:prev+h])
				continue
			}
			a := act[row*h4 : (row+1)*h4]
			vecmath.SigmoidInto32(a[:3*h], a[:3*h])
			vecmath.TanhInto32(a[3*h:], a[3*h:])
			iv, fv, ov, gv := a[:h], a[h:][:h], a[2*h:][:h], a[3*h:][:h]
			if s == 0 {
				for j := range c {
					c[j] = iv[j] * gv[j]
				}
			} else {
				cPrev := cs[prev : prev+h]
				for j := range c {
					c[j] = iv[j]*gv[j] + fv[j]*cPrev[j]
				}
			}
			vecmath.TanhInto32(tcr, c)
			for j := range hr {
				hr[j] = ov[j] * tcr[j]
			}
		}
	}
	out := t.rawNode(rows, h, needs)
	vecmath.F32To64(out.Value.Data, hs)
	if !needs {
		return out
	}

	out.back = func(out *Node) {
		// The backward products take the packed weights transposed,
		// as plain row-major operands (dx = dpre·wpᵀ).
		wpT, upT := t.transpose32(wp, in, h4), t.transpose32(up, h, h4)
		dh, dc := t.zeros32(n*h), t.zeros32(n*h) // gradient reaching step s from step s+1
		dhPrev, zeroRow := t.alloc32(n*h), t.zeros32(h)
		dpre := act // each row's activations are read once, then overwritten
		for s := T - 1; s >= 0; s-- {
			lo := s * n
			for r := 0; r < n; r++ {
				row := lo + r
				at, prev := row*h, (row-n)*h
				// The hidden state's gradient is what step s+1 passed
				// back (dhr) plus that of the row's own output (dout).
				dhr, dout := dh[r*h:][:h], out.grad.Data[at:][:h]
				dcr, dhp := dc[r*h:][:h], dhPrev[r*h:][:h]
				dp := dpre[row*h4 : (row+1)*h4]
				if s >= seqLen(lens, r, T) {
					// Padding: the state passed through unchanged.
					for j, g := range dout {
						dhp[j] = dhr[j] + float32(g)
					}
					clear(dp)
					continue
				}
				cPrev := zeroRow // the state before step 0
				if s > 0 {
					cPrev = cs[prev:][:h]
				}
				vecmath.LSTMGateGrads32(dp, dhr, dout, dcr, tc[at:at+h], cPrev)
				clear(dhp)
			}
			if s > 0 {
				vecmath.GemmNN32(dhPrev, h, dpre[lo*h4:], h4, upT, h, n, h, h4)
			}
			dh, dhPrev = dhPrev, dh
		}

		if x.needs {
			dx := t.zeros32(rows * in)
			vecmath.GemmNN32(dx, in, dpre, h4, wpT, in, rows, in, h4)
			xg := x.Grad().Data
			for i, v := range dx {
				xg[i] += float64(v)
			}
		}
		// dwp is (in+1)×4h: xᵀ·dpre over x's column of ones puts the
		// bias gradient in its last row.
		dwp, dup := t.zeros32(ldx*h4), t.zeros32(h*h4)
		vecmath.GemmTN32(dwp, h4, xs, ldx, dpre, h4, ldx, h4, rows)
		if T > 1 {
			vecmath.GemmTN32(dup, h4, hs, h, dpre[n*h4:], h4, h, h4, rows-n)
		}
		for gi, g := range gates {
			unpackGate(g[0], dwp, gi*h, h4)
			unpackGate(g[1], dup, gi*h, h4)
			unpackGate(g[2], dwp[in*h4:], gi*h, h4)
		}
	}
	return out
}

// packGate narrows w (rows×h) into columns [col, col+h) of the packed
// rows×ld float32 matrix p.
func packGate(p []float32, w *tensor.Matrix, col, ld int) {
	for k := 0; k < w.Rows; k++ {
		vecmath.F64To32(p[k*ld+col:][:w.Cols], w.Row(k))
	}
}

// transpose32 returns the cols×rows transpose of the rows×cols matrix
// a, on the tape.
func (t *Tape) transpose32(a []float32, rows, cols int) []float32 {
	at := t.alloc32(rows * cols)
	for i := 0; i < rows; i++ {
		for j, v := range a[i*cols : (i+1)*cols] {
			at[j*rows+i] = v
		}
	}
	return at
}

// unpackGate widens columns [col, col+h) of the packed float32
// gradient dp and adds them to the gradient of weight w.
func unpackGate(w *Node, dp []float32, col, ld int) {
	if !w.needs {
		return
	}
	g := w.Grad()
	for k := 0; k < g.Rows; k++ {
		row := g.Row(k)
		for j, v := range dp[k*ld+col:][:g.Cols] {
			row[j] += float64(v)
		}
	}
}

// Attend computes one attention level of EHNA (Eq. 3 and Eq. 4) for a
// time-major batch of T-step sequences. Sequence r weights its items
// v_t (row t·n+r of v) by their closeness to its query q_r:
//
//	α = softmax_t(−coef_t · ‖q_r − v_t‖²)    out_t = α_t · v_t
//
// over its lens[r] real items (nil: all T); padding rows of the result
// are zero. coef holds one non-negative coefficient per row of v (the
// time-decay factors of the paper). q has one row per sequence or
// fewer: sequence r reads row r mod q.Rows, which lets the k walks of
// one target share that target's query.
func (t *Tape) Attend(q, v *Node, coef []float64, lens []int, T int) *Node {
	rows, d := v.Value.Rows, v.Value.Cols
	n := seqShape("Attend", rows, T, lens)
	if q.Value.Cols != d || len(coef) != rows || q.Value.Rows == 0 || n%q.Value.Rows != 0 {
		panic(fmt.Sprintf("ag: Attend q %dx%d coef %d for v %dx%d in %d sequences", q.Value.Rows, q.Value.Cols, len(coef), rows, d, n))
	}
	nq := q.Value.Rows
	out := t.like(v, needsAny(q, v))
	alpha := t.alloc(rows)
	for r := 0; r < n; r++ {
		qr, L := q.Value.Row(r%nq), seqLen(lens, r, T)
		top := math.Inf(-1)
		for s := 0; s < L; s++ {
			row := s*n + r
			alpha[row] = -coef[row] * vecmath.SqDist(qr, v.Value.Row(row))
			top = math.Max(top, alpha[row])
		}
		var sum float64
		for s := 0; s < L; s++ {
			row := s*n + r
			alpha[row] = math.Exp(alpha[row] - top)
			sum += alpha[row]
		}
		for s := 0; s < L; s++ {
			row := s*n + r
			alpha[row] /= sum
			vecmath.Axpy(out.Value.Row(row), alpha[row], v.Value.Row(row))
		}
	}
	if !out.needs {
		return out
	}
	out.back = func(out *Node) {
		var qg *tensor.Matrix
		if q.needs {
			qg = q.Grad()
		}
		var vg *tensor.Matrix
		if v.needs {
			vg = v.Grad()
		}
		diff, da := t.alloc(d), t.alloc(T)
		for r := 0; r < n; r++ {
			qr, L := q.Value.Row(r%nq), seqLen(lens, r, T)
			// dα_t = dout_t·v_t, then through the softmax:
			// ds_t = α_t (dα_t − Σ_u α_u dα_u).
			var mean float64
			for s := 0; s < L; s++ {
				row := s*n + r
				da[s] = vecmath.Dot(out.grad.Row(row), v.Value.Row(row))
				mean += alpha[row] * da[s]
			}
			for s := 0; s < L; s++ {
				row := s*n + r
				g, vr := out.grad.Row(row), v.Value.Row(row)
				ds := alpha[row] * (da[s] - mean)
				// s_t = −coef_t‖q−v_t‖²: ∂s/∂q = −2 coef (q−v) = −∂s/∂v.
				c := -2 * coef[row] * ds
				for j := range diff {
					diff[j] = qr[j] - vr[j]
				}
				if qg != nil {
					vecmath.Axpy(qg.Row(r%nq), c, diff)
				}
				if vg != nil {
					vecmath.Axpy(vg.Row(row), -c, diff)
					vecmath.Axpy(vg.Row(row), alpha[row], g)
				}
			}
		}
	}
	return out
}

// LayerNorm normalizes each row of x to zero mean and unit variance
// across features, then applies the learned affine transform:
//
//	y[r,:] = gain ⊙ (x[r,:] − μ_r)/√(σ²_r + eps) + bias
//
// gain and bias are 1×cols nodes. One fused node replaces the ~13-node
// per-row chain the unfused implementation recorded.
func (t *Tape) LayerNorm(x, gain, bias *Node, eps float64) *Node {
	rows, d := x.Value.Rows, x.Value.Cols
	if gain.Value.Rows != 1 || gain.Value.Cols != d || bias.Value.Rows != 1 || bias.Value.Cols != d {
		panic(fmt.Sprintf("ag: LayerNorm gain %dx%d bias %dx%d for x cols %d",
			gain.Value.Rows, gain.Value.Cols, bias.Value.Rows, bias.Value.Cols, d))
	}
	n := t.like(x, needsAny(x, gain, bias))
	inv := t.alloc(rows)
	xhat := tensor.Matrix{Rows: rows, Cols: d, Data: t.alloc(rows * d)}
	val := n.Value
	fd := float64(d)
	for r := 0; r < rows; r++ {
		xrow := x.Value.Row(r)
		var mu float64
		for _, v := range xrow {
			mu += v
		}
		mu /= fd
		var variance float64
		for _, v := range xrow {
			dv := v - mu
			variance += dv * dv
		}
		variance /= fd
		inv[r] = 1 / math.Sqrt(variance+eps)
		hrow := xhat.Row(r)
		vrow := val.Row(r)
		for j, v := range xrow {
			hrow[j] = (v - mu) * inv[r]
			vrow[j] = hrow[j]*gain.Value.Data[j] + bias.Value.Data[j]
		}
	}
	if n.needs {
		n.back = func(n *Node) {
			for r := 0; r < rows; r++ {
				grow := n.grad.Row(r)
				hrow := xhat.Row(r)
				if bias.needs {
					vecmath.Add(bias.Grad().Data, grow)
				}
				if gain.needs {
					gg := gain.Grad().Data
					for j, g := range grow {
						gg[j] += g * hrow[j]
					}
				}
				if x.needs {
					// dxhat = dy ⊙ gain; dx = inv·(dxhat − mean(dxhat)
					//        − xhat·mean(dxhat ⊙ xhat))
					var m1, m2 float64
					for j, g := range grow {
						dxh := g * gain.Value.Data[j]
						m1 += dxh
						m2 += dxh * hrow[j]
					}
					m1 /= fd
					m2 /= fd
					xrow := x.Grad().Row(r)
					for j, g := range grow {
						dxh := g * gain.Value.Data[j]
						xrow[j] += inv[r] * (dxh - m1 - hrow[j]*m2)
					}
				}
			}
		}
	}
	return n
}
