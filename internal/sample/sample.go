// Package sample provides the sampling primitives shared by the EHNA
// trainer and the baselines: Walker's alias method for O(1) discrete
// sampling, the degree^0.75 negative-sampling noise distribution of
// word2vec (adopted by the paper, Section IV-D), and reservoir sampling.
package sample

import (
	"fmt"
	"math"
	"math/rand"

	"ehna/internal/graph"
)

// Alias is a Walker alias table supporting O(1) draws from an arbitrary
// discrete distribution over {0..n−1}.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table from non-negative weights. At least one
// weight must be positive.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("sample: empty weight vector")
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("sample: weight[%d] = %g is not a finite non-negative number", i, w)
		}
		sum += w
	}
	if sum == 0 {
		return nil, fmt.Errorf("sample: all weights are zero")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small {
		a.prob[i] = 1 // numerical residue
	}
	return a, nil
}

// Draw samples one index.
func (a *Alias) Draw(rng *rand.Rand) int {
	i := rng.Intn(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Len returns the support size.
func (a *Alias) Len() int { return len(a.prob) }

// Negative samples negative nodes from the noise distribution
// P(v) ∝ deg(v)^0.75 (Mikolov et al.; Eq. 6 of the paper).
type Negative struct {
	table *Alias
}

// NewNegative builds the sampler from the degrees of g. Isolated nodes get
// zero probability; if every node is isolated an error is returned.
func NewNegative(g *graph.Temporal) (*Negative, error) {
	n := g.NumNodes()
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = math.Pow(float64(g.Degree(graph.NodeID(i))), 0.75)
	}
	t, err := NewAlias(w)
	if err != nil {
		return nil, fmt.Errorf("sample: negative sampler: %v", err)
	}
	return &Negative{table: t}, nil
}

// Draw samples one negative node, rejecting the excluded ids (e.g. the two
// endpoints of the positive edge). It gives up after a bounded number of
// rejections and returns the last draw, so pathological exclusion sets
// cannot loop forever.
func (s *Negative) Draw(rng *rand.Rand, exclude ...graph.NodeID) graph.NodeID {
	const maxTries = 32
	var v graph.NodeID
	for try := 0; try < maxTries; try++ {
		v = graph.NodeID(s.table.Draw(rng))
		hit := false
		for _, e := range exclude {
			if v == e {
				hit = true
				break
			}
		}
		if !hit {
			return v
		}
	}
	return v
}
