package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// lstmRow is the input of one LSTMGateGrads32 call.
type lstmRow struct {
	gates, dh, dc, tc, cPrev []float32
	dout                     []float64
}

func newLSTMRow(rng *rand.Rand, h int) lstmRow {
	f := func(n int, scale float64, unit bool) []float32 {
		v := make([]float32, n)
		for i := range v {
			if unit {
				v[i] = float32(rng.Float64()) // an activation in [0, 1)
			} else {
				v[i] = float32(scale * rng.NormFloat64())
			}
		}
		return v
	}
	r := lstmRow{gates: f(4*h, 0, true), dh: f(h, 1, false), dc: f(h, 1, false), tc: f(h, 0, true), cPrev: f(h, 2, false)}
	for j := 3 * h; j < 4*h; j++ {
		r.gates[j] = 2*r.gates[j] - 1 // g = tanh(·) is in (−1, 1)
	}
	r.dout = make([]float64, h)
	for i := range r.dout {
		r.dout[i] = rng.NormFloat64()
	}
	return r
}

func (r lstmRow) clone() lstmRow {
	c := r
	c.gates = append([]float32(nil), r.gates...)
	c.dc = append([]float32(nil), r.dc...)
	return c
}

// TestLSTMGateGradsBodiesMatch holds the dispatched LSTMGateGrads32 —
// the AVX2 body over whole groups of eight units and the Go loop over
// the rest, where the AVX2 body runs — to the Go loop alone, bit for
// bit, for every unit count 1–41, and both to the formula evaluated
// in float64 within float32 rounding.
func TestLSTMGateGradsBodiesMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for h := 1; h <= 41; h++ {
		in := newLSTMRow(rng, h)
		got, want := in.clone(), in.clone()
		LSTMGateGrads32(got.gates, got.dh, got.dout, got.dc, got.tc, got.cPrev)
		lstmGateGradsGo(want.gates, want.dh, want.dout, want.dc, want.tc, want.cPrev, 0)
		for j := range want.gates {
			if math.Float32bits(got.gates[j]) != math.Float32bits(want.gates[j]) {
				t.Fatalf("h=%d gate gradient %d: %v dispatched (%s), %v in Go", h, j, got.gates[j], Backend(), want.gates[j])
			}
		}
		for j := range want.dc {
			if math.Float32bits(got.dc[j]) != math.Float32bits(want.dc[j]) {
				t.Fatalf("h=%d dc %d: %v dispatched (%s), %v in Go", h, j, got.dc[j], Backend(), want.dc[j])
			}
		}
		for j := 0; j < h; j++ {
			i, f, o, g := float64(in.gates[j]), float64(in.gates[h+j]), float64(in.gates[2*h+j]), float64(in.gates[3*h+j])
			tc := float64(in.tc[j])
			dh := float64(in.dh[j]) + in.dout[j]
			dc := float64(in.dc[j]) + dh*o*(1-tc*tc)
			for k, w := range []float64{dc * g * i * (1 - i), dc * float64(in.cPrev[j]) * f * (1 - f), dh * tc * o * (1 - o), dc * i * (1 - g*g)} {
				if d := math.Abs(float64(got.gates[k*h+j]) - w); d > 1e-5*(1+math.Abs(w)) {
					t.Fatalf("h=%d unit %d gate %d: %v, float64 formula %v", h, j, k, got.gates[k*h+j], w)
				}
			}
			if d := math.Abs(float64(got.dc[j]) - dc*f); d > 1e-5*(1+math.Abs(dc*f)) {
				t.Fatalf("h=%d unit %d: dc %v, float64 formula %v", h, j, got.dc[j], dc*f)
			}
		}
	}
}

func TestLSTMGateGradsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r := newLSTMRow(rand.New(rand.NewSource(1)), 4)
	LSTMGateGrads32(r.gates[:15], r.dh, r.dout, r.dc, r.tc, r.cPrev)
}
