package vecmath

// LSTMGateGrads32 is one row of an LSTM step's backward pass in
// float32 (internal/ag's LSTMSeq), with h = len(dh) units. On entry
// gates holds the row's activations [i|f|o|g] (4h), dh the gradient the
// next step passed back to this row's hidden state, dout the gradient
// of its output, dc the gradient reaching its cell state, tc tanh of
// the cell state and cPrev the cell state before the step. On return
// gates holds the gradients of the four pre-activations and dc the
// gradient passed to cPrev:
//
//	dh' = dh + dout                   dc' = dc + dh'·o·(1 − tc²)
//	di = dc'·g·i·(1 − i)              df  = dc'·cPrev·f·(1 − f)
//	do = dh'·tc·o·(1 − o)             dg  = dc'·i·(1 − g²)
//	dc ← dc'·f
//
// Each product and sum is rounded on its own, in the order written, on
// every backend: the AVX2 body (eight lanes) uses no fused
// multiply-add, and the Go loop converts every product that feeds an
// addition to float32 explicitly, which no build may fuse. The two are
// therefore equal bit for bit.
func LSTMGateGrads32(gates, dh []float32, dout []float64, dc, tc, cPrev []float32) {
	h := len(dh)
	if len(gates) != 4*h || len(dout) != h || len(dc) != h || len(tc) != h || len(cPrev) != h {
		panic("vecmath: LSTMGateGrads32 length mismatch")
	}
	j := 0
	if trainAsm && simd64 {
		j = h &^ 7
		if j > 0 {
			lstmGateGradsAVX2(gates, dh, dout, dc, tc, cPrev, j)
		}
	}
	lstmGateGradsGo(gates, dh, dout, dc, tc, cPrev, j)
}

// lstmGateGradsGo is LSTMGateGrads32 over units [j0, h).
func lstmGateGradsGo(gates, dh []float32, dout []float64, dc, tc, cPrev []float32, j0 int) {
	h := len(dh)
	i, f, o, g := gates[:h], gates[h:2*h], gates[2*h:3*h], gates[3*h:4*h]
	for j := j0; j < h; j++ {
		iv, fv, ov, gv := i[j], f[j], o[j], g[j]
		dhv, tcv := dh[j]+float32(dout[j]), tc[j]
		dcv := dc[j] + float32(dhv*ov*(1-float32(tcv*tcv)))
		i[j] = dcv * gv * iv * (1 - iv)
		f[j] = dcv * cPrev[j] * fv * (1 - fv)
		o[j] = dhv * tcv * ov * (1 - ov)
		g[j] = dcv * iv * (1 - float32(gv*gv))
		dc[j] = dcv * fv
	}
}
