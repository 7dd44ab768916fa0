//go:build !noasm

package vecmath

import (
	"os"
	"testing"
)

// TestBackendMatchesCPU asserts the selected backend is exactly what
// the CPU probe plus the env kill switch dictate — a deployment
// reading Backend() from /healthz must be able to trust it.
func TestBackendMatchesCPU(t *testing.T) {
	want := "scalar"
	if cpuHasAVX2() && os.Getenv("EHNA_NOSIMD") == "" {
		want = "avx2"
	}
	if got := Backend(); got != want {
		t.Fatalf("Backend() = %q, cpu probe + env say %q", got, want)
	}
	on := want == "avx2"
	for name, flag := range map[string]bool{
		"simd64": simd64, "simd32": simd32, "simdSQ8": simdSQ8,
		"simdSym": simdSym, "simdEnc": simdEnc,
	} {
		if flag != on {
			t.Errorf("%s = %v, want %v for backend %q", name, flag, on, want)
		}
	}
	// The VNNI body is a choice inside the avx2 backend, not a backend.
	if wantVNNI := on && cpuHasAVX512VNNI(); simdVNNI != wantVNNI {
		t.Errorf("simdVNNI = %v, want %v (avx2 backend %v, VNNI probe %v)", simdVNNI, wantVNNI, on, cpuHasAVX512VNNI())
	}
}
