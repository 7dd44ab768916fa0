package vecmath

// Dense matrix products for the EHNA trainer's batched LSTM
// (internal/ag). All three accumulate into C (C += …) over row-major
// operands addressed by a leading dimension (the distance in elements
// between consecutive rows), so callers can multiply sub-blocks of
// larger buffers without copying.
//
// GemmNN and GemmTN share one register-blocked kernel: a tile of C is
// held in registers across the whole k loop, so each step costs one
// load per operand element instead of the load-modify-store per
// element that a row-at-a-time Axpy pays. On the AVX2 backend the tile
// is 4×8 (eight YMM accumulators, gemm_amd64.s); elsewhere it is 2×4
// in plain Go. A is read one element at a time (broadcast), which is
// why the transposed form needs no second kernel — only different
// strides. GemmNT contracts over the contiguous dimension of both
// operands and is a Dot per output element.
//
// GemmNN32 and GemmTN32 are the same two products in float32, the
// LSTM's compute precision: the AVX2 tile is 4×16 (eight YMM
// accumulators of eight lanes), so each byte of B it loads feeds twice
// the multiply-adds of the float64 tile; on AVX-512F a 4×32 tile of
// eight ZMM accumulators takes every whole 32 columns and the 4×16 tile
// the 16 left over. The portable kernel is the same generic Go loop.
// Every element of C is accumulated in k order by one body chosen by
// its column alone, so a row's result never depends on which other
// rows share the call.

// GemmNN computes C += A·B for A m×k, B k×n, C m×n.
func GemmNN(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	gemm(c, ldc, a, lda, 1, b, ldb, m, n, k)
}

// GemmTN computes C += Aᵀ·B for A k×m (given untransposed), B k×n,
// C m×n.
func GemmTN(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	gemm(c, ldc, a, 1, lda, b, ldb, m, n, k)
}

// GemmNT computes C += A·Bᵀ for A m×k, B n×k (given untransposed),
// C m×n.
func GemmNT(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	for i := 0; i < m; i++ {
		arow := a[i*lda : i*lda+k]
		crow := c[i*ldc : i*ldc+n]
		for j := range crow {
			crow[j] += Dot(arow, b[j*ldb:j*ldb+k])
		}
	}
}

// gemm computes C += A·B where A's element (i, p) lives at
// a[i*rsa+p*csa].
func gemm(c []float64, ldc int, a []float64, rsa, csa int, b []float64, ldb int, m, n, k int) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	// One bounds check per operand up front; the assembly kernel below
	// addresses memory through raw pointers.
	if ldc < n || ldb < n {
		panic("vecmath: gemm leading dimension shorter than a row")
	}
	_ = c[(m-1)*ldc+n-1]
	_ = a[(m-1)*rsa+(k-1)*csa]
	_ = b[(k-1)*ldb+n-1]

	done := 0 // columns finished by the assembly kernel
	if trainAsm && simd64 {
		done = n &^ 7
		var spill [8]float64 // C row of the rows a partial tile lacks
		for i := 0; i < m; i += 4 {
			// A partial tile repeats its last row and writes the
			// repeats to spill.
			r1, r2, r3 := min(i+1, m-1), min(i+2, m-1), min(i+3, m-1)
			for j := 0; j < done; j += 8 {
				c1, c2, c3 := &spill[0], &spill[0], &spill[0]
				if i+1 < m {
					c1 = &c[r1*ldc+j]
				}
				if i+2 < m {
					c2 = &c[r2*ldc+j]
				}
				if i+3 < m {
					c3 = &c[r3*ldc+j]
				}
				gemmTile4x8(k, &a[i*rsa], &a[r1*rsa], &a[r2*rsa], &a[r3*rsa], csa,
					&b[j], ldb, &c[i*ldc+j], c1, c2, c3)
			}
		}
	}
	if done < n {
		gemmGo(c, ldc, a, rsa, csa, b, ldb, m, done, n, k)
	}
}

// GemmNN32 computes C += A·B in float32 for A m×k, B k×n, C m×n.
func GemmNN32(c []float32, ldc int, a []float32, lda int, b []float32, ldb int, m, n, k int) {
	gemm32(c, ldc, a, lda, 1, b, ldb, m, n, k)
}

// GemmTN32 computes C += Aᵀ·B in float32 for A k×m (given
// untransposed), B k×n, C m×n.
func GemmTN32(c []float32, ldc int, a []float32, lda int, b []float32, ldb int, m, n, k int) {
	gemm32(c, ldc, a, 1, lda, b, ldb, m, n, k)
}

// gemm32 is gemm in float32: columns [0, n&^31) on the 4×32 AVX-512F
// tile where the CPU has it, the rest of [0, n&^15) on the 4×16 AVX2
// tile, and the last columns in Go.
func gemm32(c []float32, ldc int, a []float32, rsa, csa int, b []float32, ldb int, m, n, k int) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	if ldc < n || ldb < n {
		panic("vecmath: gemm leading dimension shorter than a row")
	}
	_ = c[(m-1)*ldc+n-1]
	_ = a[(m-1)*rsa+(k-1)*csa]
	_ = b[(k-1)*ldb+n-1]
	gemm32Bodies(c, ldc, a, rsa, csa, b, ldb, m, n, k, simd512)
}

// gemm32Bodies is gemm32 past its bounds checks, with the ZMM tile
// allowed or not. Both tiles run each column's FMAs in k order, so the
// two choices write the same bits.
func gemm32Bodies(c []float32, ldc int, a []float32, rsa, csa int, b []float32, ldb int, m, n, k int, zmm bool) {
	done, wide := 0, 0 // columns finished by the YMM and ZMM tiles
	if trainAsm && simd64 {
		done = n &^ 15
		if zmm {
			wide = n &^ 31
		}
		var spill [32]float32
		for i := 0; i < m; i += 4 {
			r1, r2, r3 := min(i+1, m-1), min(i+2, m-1), min(i+3, m-1)
			for j := 0; j < done; {
				c1, c2, c3 := &spill[0], &spill[0], &spill[0]
				if i+1 < m {
					c1 = &c[r1*ldc+j]
				}
				if i+2 < m {
					c2 = &c[r2*ldc+j]
				}
				if i+3 < m {
					c3 = &c[r3*ldc+j]
				}
				// Direct calls: through a func value, spill would escape.
				if j < wide {
					gemmTile4x32(k, &a[i*rsa], &a[r1*rsa], &a[r2*rsa], &a[r3*rsa], csa,
						&b[j], ldb, &c[i*ldc+j], c1, c2, c3)
					j += 32
				} else {
					gemmTile4x16(k, &a[i*rsa], &a[r1*rsa], &a[r2*rsa], &a[r3*rsa], csa,
						&b[j], ldb, &c[i*ldc+j], c1, c2, c3)
					j += 16
				}
			}
		}
	}
	if done < n {
		gemmGo(c, ldc, a, rsa, csa, b, ldb, m, done, n, k)
	}
}

// gemmGo is the portable kernel over columns [j0, j1): 2×4 register
// tiles, then the odd row and the last columns one element at a time.
func gemmGo[F float32 | float64](c []F, ldc int, a []F, rsa, csa int, b []F, ldb int, m, j0, j1, k int) {
	j4 := j0 + (j1-j0)&^3
	i := 0
	for ; i+2 <= m; i += 2 {
		a0, a1 := i*rsa, (i+1)*rsa
		for j := j0; j < j4; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 F
			for p := 0; p < k; p++ {
				bp := b[p*ldb+j : p*ldb+j+4 : p*ldb+j+4]
				x, y := a[a0+p*csa], a[a1+p*csa]
				c00 += x * bp[0]
				c01 += x * bp[1]
				c02 += x * bp[2]
				c03 += x * bp[3]
				c10 += y * bp[0]
				c11 += y * bp[1]
				c12 += y * bp[2]
				c13 += y * bp[3]
			}
			r0 := c[i*ldc+j : i*ldc+j+4 : i*ldc+j+4]
			r0[0] += c00
			r0[1] += c01
			r0[2] += c02
			r0[3] += c03
			r1 := c[(i+1)*ldc+j : (i+1)*ldc+j+4 : (i+1)*ldc+j+4]
			r1[0] += c10
			r1[1] += c11
			r1[2] += c12
			r1[3] += c13
		}
	}
	gemmEdge(c, ldc, a, rsa, csa, b, ldb, 0, i, j4, j1, k) // last columns of the tiled rows
	gemmEdge(c, ldc, a, rsa, csa, b, ldb, i, m, j0, j1, k) // the odd row
}

// gemmEdge handles rows [i0, i1) × columns [j0, j1) one element at a
// time.
func gemmEdge[F float32 | float64](c []F, ldc int, a []F, rsa, csa int, b []F, ldb int, i0, i1, j0, j1, k int) {
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			var s F
			for p := 0; p < k; p++ {
				s += a[i*rsa+p*csa] * b[p*ldb+j]
			}
			c[i*ldc+j] += s
		}
	}
}
