// Package skipgram implements skip-gram with negative sampling (SGNS,
// Mikolov et al.) over node sequences. It is the training substrate of the
// NODE2VEC and CTDNE baselines: nodes co-occurring within a window of the
// same random walk are pushed together in embedding space.
//
// Training is hogwild-parallel: workers update the shared embedding
// matrices without locks, the standard (and empirically benign) practice
// for sparse SGNS updates.
package skipgram

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"ehna/internal/graph"
	"ehna/internal/sample"
	"ehna/internal/tensor"
	"ehna/internal/vecmath"
)

// Config parameterizes SGNS training.
type Config struct {
	Dim       int     // embedding dimensionality (paper: 128)
	Window    int     // max context offset within a walk (paper: 10 for node2vec)
	Negatives int     // negative samples per positive pair (paper: 5)
	LR        float64 // initial learning rate, decayed linearly to LR/100
	Epochs    int     // passes over the sequence set
	Workers   int     // parallel workers; 0 means GOMAXPROCS
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	if c.Dim < 1 {
		return fmt.Errorf("skipgram: Dim %d < 1", c.Dim)
	}
	if c.Window < 1 {
		return fmt.Errorf("skipgram: Window %d < 1", c.Window)
	}
	if c.Negatives < 1 {
		return fmt.Errorf("skipgram: Negatives %d < 1", c.Negatives)
	}
	if c.LR <= 0 {
		return fmt.Errorf("skipgram: LR %g must be positive", c.LR)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("skipgram: Epochs %d < 1", c.Epochs)
	}
	return nil
}

// Model holds the two SGNS matrices. Emb ("input" vectors) is the final
// node representation; Ctx holds the context ("output") vectors.
type Model struct {
	Emb, Ctx *tensor.Matrix
}

// NewModel initializes SGNS matrices for n nodes: Emb uniform in
// [−0.5/d, 0.5/d) (word2vec convention), Ctx zero.
func NewModel(n, dim int, rng *rand.Rand) *Model {
	return &Model{
		Emb: tensor.Uniform(n, dim, -0.5/float64(dim), 0.5/float64(dim), rng),
		Ctx: tensor.New(n, dim),
	}
}

// Train runs SGNS over the sequences, sampling negatives from noise
// (typically degree^0.75). It returns the trained model.
func Train(seqs [][]graph.NodeID, numNodes int, noise *sample.Alias, cfg Config, seed int64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("skipgram: no sequences to train on")
	}
	if noise == nil {
		return nil, fmt.Errorf("skipgram: nil noise distribution")
	}
	m := NewModel(numNodes, cfg.Dim, rand.New(rand.NewSource(seed)))
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	totalSteps := cfg.Epochs * len(seqs)
	var done int64 // approximate progress for LR decay; benign races
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var wg sync.WaitGroup
		chunk := (len(seqs) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > len(seqs) {
				hi = len(seqs)
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int, wseed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(wseed))
				grad := make([]float64, cfg.Dim)
				for _, seq := range seqs[lo:hi] {
					progress := float64(done) / float64(totalSteps)
					lr := cfg.LR * (1 - progress)
					if lr < cfg.LR/100 {
						lr = cfg.LR / 100
					}
					m.trainSequence(seq, noise, cfg, lr, rng, grad)
					done++
				}
			}(lo, hi, seed+int64(epoch*workers+w)+1)
		}
		wg.Wait()
	}
	return m, nil
}

// trainSequence applies one SGNS pass over a single walk.
func (m *Model) trainSequence(seq []graph.NodeID, noise *sample.Alias, cfg Config, lr float64, rng *rand.Rand, grad []float64) {
	for i, center := range seq {
		// Dynamic window, as in word2vec: uniform in [1, Window].
		win := 1 + rng.Intn(cfg.Window)
		lo := i - win
		if lo < 0 {
			lo = 0
		}
		hi := i + win
		if hi >= len(seq) {
			hi = len(seq) - 1
		}
		for j := lo; j <= hi; j++ {
			if j == i || seq[j] == center {
				continue
			}
			m.pair(int(center), int(seq[j]), noise, cfg.Negatives, lr, rng, grad)
		}
	}
}

// pair applies the SGNS update for one (center, context) pair through
// the fused vecmath.SgnsUpdate kernel (dot, sigmoid and both axpys in
// one pass). grad is caller-owned per-worker scratch, so the whole
// pair loop is allocation-free (asserted in skipgram_test.go).
func (m *Model) pair(center, context int, noise *sample.Alias, negatives int, lr float64, rng *rand.Rand, grad []float64) {
	v := m.Emb.Row(center)
	vecmath.Zero(grad)
	// Positive example: label 1.
	vecmath.SgnsUpdate(v, m.Ctx.Row(context), grad, 1, lr)
	// Negatives: label 0.
	for k := 0; k < negatives; k++ {
		neg := noise.Draw(rng)
		if neg == context {
			continue
		}
		vecmath.SgnsUpdate(v, m.Ctx.Row(neg), grad, 0, lr)
	}
	vecmath.Add(v, grad)
}

// DegreeNoise builds the deg^0.75 noise distribution over g's nodes,
// matching the paper's negative-sampling setup.
func DegreeNoise(g *graph.Temporal) (*sample.Alias, error) {
	n := g.NumNodes()
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		d := float64(g.Degree(graph.NodeID(i)))
		if d > 0 {
			w[i] = math.Pow(d, 0.75)
		}
	}
	return sample.NewAlias(w)
}
