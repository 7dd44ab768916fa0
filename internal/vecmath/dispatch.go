// Kernel backend dispatch. The hot kernels (Dot/SqDist, the f32
// family, and the SQ8 set) each check a per-family flag and route to a
// hand-written SIMD implementation when the CPU supports one:
//
//   - amd64: AVX2+FMA (simd_amd64.s), selected at init by a local
//     cpuid probe (cpu_amd64.go) — no external dependency. Within it
//     the sq8 scan kernel (Sym4Survivors) has a second body for CPUs
//     with AVX512-VNNI+VL, picked by the same probe; Backend() still
//     reports "avx2".
//   - arm64: NEON (simd_arm64.s) for the float kernels; ASIMD is
//     mandatory on armv8, so no probe is needed.
//   - everything else, and any build with the `noasm` tag: the flags
//     are compile-time false constants, the dispatch branches fold
//     away, and the portable scalar loops are all that is built.
//
// The public kernels stay thin wrappers (length check + one branch), so
// call sites keep the inlining and zero-allocation behavior of the
// scalar-only package; the scalar bodies remain as the always-built
// reference the SIMD paths are tested against (dispatch_amd64_test.go
// compares every assembly kernel to its scalar twin over lengths 0–257
// on aligned and unaligned slices).
//
// Runtime kill switch: setting EHNA_NOSIMD to any non-empty value
// forces the scalar backend without a rebuild — the ops escape hatch
// when a kernel is suspected. The `noasm` build tag removes the
// assembly entirely (CI runs the vecmath, ann and training suites both
// ways).
//
// Two kernel sets exist on amd64 only and serve training, not serving:
// the GEMM tile (gemm.go) and the block activations (activ.go). They
// check simd64 behind the trainAsm build constant, so arm64 — whose
// simd64 means NEON Dot/SqDist — takes their portable loops.
package vecmath

// Backend reports the active kernel backend: "avx2", "neon" or
// "scalar". Deployments surface this through ehnad's /healthz and the
// ehnad_kernel_backend gauge to verify they run on the fast path.
func Backend() string { return backendName }

// HasSQ8Sym reports whether DotSQ8Sym runs on a SIMD backend. ann
// gates its two-stage sq8 search on this: the symmetric integer
// kernel's SIMD form (VPMADDWD on AVX2) is several times cheaper than
// the asymmetric kernel, but its scalar form is slightly slower, so a
// symmetric first stage only pays when this reports true.
func HasSQ8Sym() bool { return simdSym }

// simdMinLanes is the shortest vector routed to a SIMD kernel: below
// one full block the scalar loop is at least as fast and the asm would
// run only its tail code.
const simdMinLanes = 16
