// Int8 scalar quantization (SQ8): the narrowest lane of the compressed
// vector plane. Each vector is encoded independently against its own
// [min, max] range into one int8 code per lane plus a per-vector
// {scale, offset} pair, so a distance computation moves 1 byte per
// lane — an 8× cut over float64 — at the price of a bounded, per-
// vector reconstruction error of at most scale/2 per lane.
//
// Two distance kernels cover the two stages of a quantized search:
//
//   - DotSQ8Sym is the symmetric kernel — both operands quantized —
//     whose inner loop is a pure int8×int8 integer dot. It is the
//     cheapest possible scan and drives candidate generation.
//   - DotSQ8 is the asymmetric kernel — quantized stored vector
//     against the full-precision query — used to re-rank the
//     survivors, so the final ordering only carries the stored
//     vectors' quantization error, not the query's.
//
// Error envelopes (asserted in sq8_test.go and fuzzed in fuzz_test.go):
// reconstruction |v̂ᵢ−vᵢ| ≤ scale/2 per lane, and |DotSQ8(q,v̂) −
// Dot(q,v)| ≤ (scale/2)·‖q‖₁ (up to float rounding), since the
// asymmetric kernel computes an exact dot against the reconstruction.
//
// Kernels assume finite inputs; encoding magnitudes near ±MaxFloat64
// can overflow the range computation (the serving plane stores trained
// embeddings, orders of magnitude below that).
package vecmath

import "math"

// i8f maps the uint8 reinterpretation of an int8 code to its float64
// value. The asymmetric kernels' inner loops fetch lane values from
// this 2KB L1-resident table instead of paying a sign-extend plus
// int→float convert per lane — measurably faster on scalar cores,
// where the convert is the longest op in the loop.
var i8f [256]float64

func init() {
	for i := range i8f {
		i8f[i] = float64(int8(uint8(i)))
	}
}

// EncodeSQ8 quantizes v into one int8 per lane: scale = (max−min)/255,
// codeᵢ = round((vᵢ−min)/scale) − 128, and decode is v̂ᵢ = offset +
// scale·codeᵢ with offset = min + 128·scale. Returns the decode
// parameters and Σcodeᵢ (the precomputed term DotSQ8Sym's affine
// correction needs). Constant (and empty) vectors encode as scale 0,
// offset = v₀, all-zero codes — reconstruction is then exact. code
// must have len(v).
func EncodeSQ8(v []float64, code []int8) (scale, offset float64, codeSum int32) {
	if len(code) != len(v) {
		panic("vecmath: EncodeSQ8 length mismatch")
	}
	if len(v) == 0 {
		return 0, 0, 0
	}
	useSIMD := simdEnc && len(v) >= simdMinLanes
	var lo, hi float64
	if useSIMD {
		lo, hi = minMaxSIMD(v)
	} else {
		lo, hi = v[0], v[0]
		for _, x := range v[1:] {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
	}
	scale = (hi - lo) / 255
	if scale == 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		// Constant vector, or a degenerate range the codes cannot
		// represent: store the midpoint exactly-ish and quantize nothing.
		for i := range code {
			code[i] = 0
		}
		return 0, lo, 0
	}
	offset = lo + 128*scale
	inv := 1 / scale
	if useSIMD {
		// The vector path rounds nearest-even (the CPU default); the
		// tail lanes use RoundToEven to match. Scalar EncodeSQ8 rounds
		// half away from zero — the two differ by at most one code on
		// exact .5 boundaries, both within the scale/2 envelope.
		n := len(v) &^ 7
		codeSum = quantizeSIMD(v[:n], code[:n], lo, inv)
		for i := n; i < len(v); i++ {
			c := int(math.RoundToEven((v[i]-lo)*inv)) - 128
			if c < -128 {
				c = -128
			} else if c > 127 {
				c = 127
			}
			code[i] = int8(c)
			codeSum += int32(c)
		}
		return scale, offset, codeSum
	}
	for i, x := range v {
		c := int(math.Round((x-lo)*inv)) - 128
		if c < -128 {
			c = -128
		} else if c > 127 {
			c = 127
		}
		code[i] = int8(c)
		codeSum += int32(c)
	}
	return scale, offset, codeSum
}

// DecodeSQ8 reconstructs v̂ᵢ = offset + scale·codeᵢ into dst, which
// must have len(code).
func DecodeSQ8(dst []float64, code []int8, scale, offset float64) {
	if len(dst) != len(code) {
		panic("vecmath: DecodeSQ8 length mismatch")
	}
	code = code[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = offset + scale*float64(code[i])
		dst[i+1] = offset + scale*float64(code[i+1])
		dst[i+2] = offset + scale*float64(code[i+2])
		dst[i+3] = offset + scale*float64(code[i+3])
	}
	for i := n; i < len(dst); i++ {
		dst[i] = offset + scale*float64(code[i])
	}
}

// DotSQ8 is the asymmetric dot product: the full-precision query q
// against an SQ8-encoded stored vector. It computes Dot(q, v̂) exactly
// (up to float rounding) via
//
//	Dot(q, v̂) = scale·Σ qᵢ·codeᵢ + offset·Σ qᵢ
//
// so callers pass qSum = Sum(q), computed once per query; the per-
// candidate loop then reads 1 byte per lane of the candidate.
func DotSQ8(q []float64, code []int8, scale, offset, qSum float64) float64 {
	if len(q) != len(code) {
		panic("vecmath: DotSQ8 length mismatch")
	}
	if simdSQ8 && len(q) >= simdMinLanes {
		return scale*dotSQ8RawSIMD(q, code) + offset*qSum
	}
	return dotSQ8Scalar(q, code, scale, offset, qSum)
}

func dotSQ8Scalar(q []float64, code []int8, scale, offset, qSum float64) float64 {
	code = code[:len(q)]
	var s0, s1, s2, s3 float64
	n := len(q) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += q[i] * i8f[uint8(code[i])]
		s1 += q[i+1] * i8f[uint8(code[i+1])]
		s2 += q[i+2] * i8f[uint8(code[i+2])]
		s3 += q[i+3] * i8f[uint8(code[i+3])]
	}
	s := (s0 + s2) + (s1 + s3)
	for i := n; i < len(q); i++ {
		s += q[i] * i8f[uint8(code[i])]
	}
	return scale*s + offset*qSum
}

// DotSQ8Sym is the symmetric dot product between two SQ8-encoded
// vectors: with â = aOff + aScale·ac and b̂ = bOff + bScale·bc,
//
//	Dot(â, b̂) = n·aOff·bOff + aOff·bScale·Σbc + bOff·aScale·Σac
//	          + aScale·bScale·Σ acᵢ·bcᵢ
//
// where the code sums come precomputed from EncodeSQ8, so the inner
// loop is a pure int8×int8 integer dot — 2 bytes moved per lane and no
// float conversions. This is the candidate-generation kernel; the int32
// accumulators are safe for dimensions up to 2³¹/(4·128²) ≈ 32k lanes
// per accumulator (≈131k total), far above any embedding width here.
func DotSQ8Sym(ac, bc []int8, aScale, aOffset, bScale, bOffset float64, aSum, bSum int32) float64 {
	s := DotSQ8SymCodes(ac, bc)
	return float64(len(ac))*aOffset*bOffset +
		aOffset*bScale*float64(bSum) +
		bOffset*aScale*float64(aSum) +
		aScale*bScale*float64(s)
}

// DotSQ8SymCodes is the integer core of DotSQ8Sym: Σ acᵢ·bcᵢ over the
// raw int8 codes, leaving the affine correction to the caller. The
// HNSW beam scores through this directly so the correction's
// query-side terms hoist out of its per-candidate loop and the
// wrapper call chain stays out of the hot path.
func DotSQ8SymCodes(ac, bc []int8) int32 {
	if len(ac) != len(bc) {
		panic("vecmath: DotSQ8Sym length mismatch")
	}
	if simdSym && len(ac) >= simdMinLanes {
		return dotSQ8SymRawSIMD(ac, bc)
	}
	bc = bc[:len(ac)]
	var s0, s1, s2, s3 int32
	n := len(ac) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += int32(ac[i]) * int32(bc[i])
		s1 += int32(ac[i+1]) * int32(bc[i+1])
		s2 += int32(ac[i+2]) * int32(bc[i+2])
		s3 += int32(ac[i+3]) * int32(bc[i+3])
	}
	s := (s0 + s2) + (s1 + s3)
	for i := n; i < len(ac); i++ {
		s += int32(ac[i]) * int32(bc[i])
	}
	return s
}

// Sym4Queries is four sq8 queries in the forms Sym4Survivors reads them
// in, and each query lane's score terms and floor. Set writes a lane's
// codes: as bytes (the VNNI body's VPDPBUSD operand), widened to int16
// (the AVX2 body's VPMADDWD operand, widened once per query rather than
// once per row) and as 128·Σcodes (what the VNNI body's biased rows add
// to the lane's dot). Callers fill A, B, C and Floor directly; a lane
// the caller does not use takes a +Inf floor and has its survivor bit
// ignored.
type Sym4Queries struct {
	A, B, C, Floor [4]float64

	dim   int
	codes []int8  // query-major, 4·dim
	wide  []int16 // codes, widened
	bias  [4]int32
}

// Set makes codes the queries' lane; all four lanes hold codes of one
// length, and a Set of another length resizes them (the others then
// read as zeros until set).
func (g *Sym4Queries) Set(lane int, codes []int8) {
	dim := len(codes)
	if dim != g.dim {
		g.dim = dim
		g.codes, g.wide = make([]int8, 4*dim), make([]int16, 4*dim)
		g.bias = [4]int32{}
	}
	var sum int32
	for i, c := range codes {
		g.codes[lane*dim+i] = c
		g.wide[lane*dim+i] = int16(c)
		sum += int32(c)
	}
	g.bias[lane] = 128 * sum
}

// Sym4Survivors is the blocked sq8 scan's kernel: four queries against
// a run of contiguous sq8 rows, every row loaded once for all four (the
// register-blocked form of a brute-force scan). For row r of rows, with
// rowOff, rowSum and rowScale its factors, it writes the four code dots
//
//	dots[4·r+j] = Σᵢ rows[r·dim+i] · codes_j[i]
//
// and scores each lane as
//
//	rowOff[r]·A[j] + rowSum[r]·B[j] + (rowScale[r]·C[j])·dots[4·r+j]
//
// in that order of operations, each product rounded on its own (no
// fused multiply-add), so the score is bit for bit what the same Go
// expression gives with each product wrapped in float64(...). Every row
// where some lane's score is !(score < Floor[j]) — NaN included —
// appends r<<4 | laneMask (bit j for lane j) to surv, and the count is
// returned: the rows that can reach some lane's floor, so the caller
// re-scores only those. The append is branch-free: every row writes
// surv at the count and only a surviving row advances it.
//
// Three bodies, bit-equal in dots and survivors: the Go reference
// (noasm, arm64, EHNA_NOSIMD and dims below simdMinLanes), the AVX2
// body (VPMADDWD over the widened codes) and the AVX512-VNNI body
// (VPDPBUSD on YMM over rows biased by XOR 0x80, less each lane's
// 128·Σcodes). Panics unless rows holds len(rowOff) rows of the
// queries' dim, rowSum, rowScale and dots match, and surv has room for
// every row.
func Sym4Survivors(dots []int32, surv []uint32, g *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int {
	n, dim := len(rowOff), g.dim
	if dim < 1 || len(rows) != n*dim || len(dots) != 4*n || len(surv) < n || len(rowSum) != n || len(rowScale) != n {
		panic("vecmath: Sym4Survivors shape mismatch")
	}
	if dim >= simdMinLanes {
		switch {
		case simdVNNI:
			return sym4SurvivorsVNNI(dots, surv, g, rows, rowOff, rowSum, rowScale)
		case simdSym:
			return sym4SurvivorsAVX2(dots, surv, g, rows, rowOff, rowSum, rowScale)
		}
	}
	return sym4SurvivorsGo(dots, surv, g, rows, rowOff, rowSum, rowScale)
}

func sym4SurvivorsGo(dots []int32, surv []uint32, g *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int {
	dim, n := g.dim, 0
	for r := range rowOff {
		row := rows[r*dim : (r+1)*dim]
		var mask uint32
		for j := 0; j < 4; j++ {
			q := g.codes[j*dim : (j+1)*dim]
			var dot int32
			for i, c := range row {
				dot += int32(c) * int32(q[i])
			}
			dots[4*r+j] = dot
			score := float64(rowOff[r]*g.A[j]) + float64(rowSum[r]*g.B[j]) + float64(rowScale[r]*g.C[j]*float64(dot))
			if !(score < g.Floor[j]) {
				mask |= 1 << j
			}
		}
		surv[n] = uint32(r)<<4 | mask
		if mask != 0 {
			n++
		}
	}
	return n
}
