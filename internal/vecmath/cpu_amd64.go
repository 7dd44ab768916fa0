//go:build !noasm

package vecmath

// Local cpuid shim — the repo carries no dependencies, so AVX2
// detection is done directly: CPUID for the feature bits, XGETBV to
// confirm the OS actually saves the YMM state (a kernel that doesn't
// enable XSAVE for AVX leaves the registers corrupted across context
// switches, so the bit check alone is not enough).

// cpuid executes CPUID with the given leaf/subleaf. cpuid_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (only valid once OSXSAVE is confirmed).
func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the CPU and OS together support the AVX2
// + FMA kernel set in simd_amd64.s.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE state) and 2 (AVX state) must both be enabled
	// by the OS.
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// cpuHasAVX512F reports whether the CPU and OS together support the
// float32 GEMM's ZMM tile: AVX512F beside the AVX2 set, with XCR0
// enabling the opmask and ZMM state (bits 5–7) beside the SSE and AVX
// state.
func cpuHasAVX512F() bool {
	if !cpuHasAVX2() {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	return ebx7&avx512f != 0
}

// cpuHasAVX512VNNI reports whether the CPU and OS together support
// the survivor kernels' VNNI bodies: AVX512-VNNI for VPDPBUSD, AVX512VL to run
// it on YMM, AVX512BW for the byte-masked tail loads, on top of
// cpuHasAVX512F — the body writes Y16–Y21 and K1.
func cpuHasAVX512VNNI() bool {
	if !cpuHasAVX512F() {
		return false
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	const (
		avx512bw = 1 << 30
		avx512vl = 1 << 31
		vnni     = 1 << 11 // ecx
	)
	return ebx7&(avx512bw|avx512vl) == avx512bw|avx512vl && ecx7&vnni != 0
}
