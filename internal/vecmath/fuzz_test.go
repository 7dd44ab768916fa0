package vecmath

import (
	"encoding/binary"
	"math"
	"testing"
)

// decodeVecs turns fuzz bytes into two equal-length float64 vectors,
// rejecting NaN/Inf and absurd magnitudes so reference comparisons stay
// meaningful. Length is capped at 257 to cover every unroll remainder.
func decodeVecs(data []byte) (a, b []float64, ok bool) {
	if len(data) < 1 {
		return nil, nil, false
	}
	n := int(data[0]) // 0..255, plus the remainder cases below
	data = data[1:]
	if len(data) < 2*8*n {
		n = len(data) / 16
	}
	a = make([]float64, n)
	b = make([]float64, n)
	for i := 0; i < n; i++ {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
			x = float64(i%7) - 3
		}
		if math.IsNaN(y) || math.IsInf(y, 0) || math.Abs(y) > 1e100 {
			y = float64(i%5) - 2
		}
		a[i], b[i] = x, y
	}
	return a, b, true
}

// FuzzKernelsMatchReference fuzzes the unrolled kernels against the
// naive scalar references. Run with: go test -fuzz=FuzzKernels ./internal/vecmath
func FuzzKernelsMatchReference(f *testing.F) {
	// Seed the corpus with every unroll remainder around the 4-element
	// block size plus a longer vector.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65} {
		seed := make([]byte, 1+16*n)
		seed[0] = byte(n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(seed[1+16*i:], math.Float64bits(float64(i)-1.5))
			binary.LittleEndian.PutUint64(seed[1+16*i+8:], math.Float64bits(2.5-float64(i)))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, ok := decodeVecs(data)
		if !ok {
			return
		}
		if got, want := Dot(a, b), refDot(a, b); !close12(got, want) {
			t.Fatalf("Dot n=%d: got %g want %g", len(a), got, want)
		}
		if got, want := SquaredL2(a), refSquaredL2(a); !close12(got, want) {
			t.Fatalf("SquaredL2 n=%d: got %g want %g", len(a), got, want)
		}
		if got, want := SqDist(a, b), refSqDist(a, b); !close12(got, want) {
			t.Fatalf("SqDist n=%d: got %g want %g", len(a), got, want)
		}
		dst := append([]float64(nil), a...)
		want := append([]float64(nil), a...)
		Axpy(dst, 0.5, b)
		for i := range want {
			want[i] += 0.5 * b[i]
		}
		for i := range want {
			if !close12(dst[i], want[i]) {
				t.Fatalf("Axpy n=%d: [%d] got %g want %g", len(a), i, dst[i], want[i])
			}
		}
	})
}

// FuzzSQ8RoundTrip fuzzes the scalar-quantization plane: encode→decode
// must never panic, every lane must reconstruct within the per-vector
// scale bound, and the asymmetric DotSQ8 must stay inside its
// documented error envelope against the exact Dot. Run with:
// go test -fuzz=FuzzSQ8RoundTrip ./internal/vecmath
func FuzzSQ8RoundTrip(f *testing.F) {
	for _, n := range []int{0, 1, 3, 4, 5, 8, 9, 64, 65} {
		seed := make([]byte, 1+16*n)
		seed[0] = byte(n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(seed[1+16*i:], math.Float64bits(float64(i)*0.75-1.5))
			binary.LittleEndian.PutUint64(seed[1+16*i+8:], math.Float64bits(2.5-float64(i)))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, q, ok := decodeVecs(data) // sanitized: finite, |x| ≤ 1e100
		if !ok {
			return
		}
		n := len(v)
		code := make([]int8, n)
		scale, offset, codeSum := EncodeSQ8(v, code)
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			t.Fatalf("EncodeSQ8 n=%d: non-finite scale %g", n, scale)
		}
		var wantSum int32
		for _, c := range code {
			wantSum += int32(c)
		}
		if codeSum != wantSum {
			t.Fatalf("EncodeSQ8 n=%d: codeSum %d want %d", n, codeSum, wantSum)
		}

		dec := make([]float64, n)
		DecodeSQ8(dec, code, scale, offset)
		laneBound := scale/2 + 1e-9*(math.Abs(offset)+256*scale+1)
		for i := range v {
			if d := math.Abs(dec[i] - v[i]); d > laneBound {
				t.Fatalf("n=%d lane %d: reconstruction err %g > %g (scale %g)", n, i, d, laneBound, scale)
			}
		}

		var l1q float64
		for _, x := range q {
			l1q += math.Abs(x)
		}
		got := DotSQ8(q, code, scale, offset, Sum(q))
		want := refDot(q, v)
		envelope := scale/2*l1q + 1e-9*(l1q*(math.Abs(offset)+128*scale)+math.Abs(want)+1)
		if d := math.Abs(got - want); d > envelope {
			t.Fatalf("DotSQ8 n=%d: |%g − %g| = %g > envelope %g", n, got, want, d, envelope)
		}
	})
}

// FuzzSym4Survivors holds every Sym4Survivors body the CPU has, and
// every Sym1Survivors body on lane 0 of the same input, to the dots and
// survivors sym4Case.run computes, over inputs taken from the fuzz
// bytes: a dim of 1–130 (the Go reference below simdMinLanes, both
// SIMD bodies' chunk and tail splits above it), up to 9 rows (the
// one-query bodies' fours and remainders), codes, and raw float64 bits
// for every row factor, lane term and floor, so NaN, ±Inf, signed
// zeros and subnormals all occur. Run with:
// go test -run=NONE -fuzz=FuzzSym4Survivors ./internal/vecmath
func FuzzSym4Survivors(f *testing.F) {
	for _, dim := range []int{1, 15, 16, 24, 32, 33, 64, 100, 128} {
		seed := []byte{byte(dim - 1), 3}
		for i := 0; i < 4*dim+3*dim+3*3*8+4*4*8; i++ {
			seed = append(seed, byte(i*37+dim))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := sym4CaseFromBytes(data)
		if !ok {
			return
		}
		for name, body := range sym4Bodies(c.dim) {
			c.resetOutputs()
			c.run(t, name, 0, body)
		}
		c.one(0)
		for name, body := range sym1Bodies(c.dim) {
			c.resetOutputs()
			c.run(t, "one/"+name, 0, body)
		}
	})
}

// sym4CaseFromBytes decodes a fuzz input: dim−1 and the row count in
// the first two bytes, then the four queries' codes, the rows' codes,
// each row's three factors and the lanes' A, B, C and Floor, as raw
// little-endian float64 bits. Short inputs are rejected.
func sym4CaseFromBytes(data []byte) (*sym4Case, bool) {
	if len(data) < 2 {
		return nil, false
	}
	dim, nRows := 1+int(data[0])%130, int(data[1])%10
	data = data[2:]
	if len(data) < 4*dim+nRows*dim+8*(3*nRows+16) {
		return nil, false
	}
	c := &sym4Case{
		dim:     dim,
		lanes:   4,
		rowsBuf: make([]int8, nRows*dim),
		dotsBuf: make([]int32, 4*nRows),
		survBuf: make([]uint32, nRows),
	}
	c.rows, c.dots, c.surv = c.rowsBuf, c.dotsBuf, c.survBuf
	for j := range c.q8 {
		c.q8[j] = make([]int8, dim)
		for i := range c.q8[j] {
			c.q8[j][i] = int8(data[j*dim+i])
		}
		c.g.Set(j, c.q8[j])
	}
	data = data[4*dim:]
	for i := range c.rows {
		c.rows[i] = int8(data[i])
	}
	data = data[nRows*dim:]
	next := func() float64 {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return x
	}
	c.rowOff, c.rowSum, c.rowScale = make([]float64, nRows), make([]float64, nRows), make([]float64, nRows)
	for r := 0; r < nRows; r++ {
		c.rowOff[r], c.rowSum[r], c.rowScale[r] = next(), next(), next()
	}
	for j := 0; j < 4; j++ {
		c.g.A[j], c.g.B[j], c.g.C[j], c.g.Floor[j] = next(), next(), next(), next()
	}
	return c, true
}
