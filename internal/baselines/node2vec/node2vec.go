// Package node2vec implements the NODE2VEC baseline (Grover & Leskovec,
// KDD 2016): second-order p/q-biased random walks feeding skip-gram with
// negative sampling. It ignores all temporal information — the paper's
// representative static embedding method.
package node2vec

import (
	"fmt"
	"math/rand"

	"ehna/internal/graph"
	"ehna/internal/skipgram"
	"ehna/internal/tensor"
	"ehna/internal/walk"
)

// Config parameterizes the baseline. The paper's Section V-C uses k=10
// walks of length ℓ=80 per node, window 10, 5 negatives, d=128.
type Config struct {
	P, Q     float64
	NumWalks int
	WalkLen  int
	SGNS     skipgram.Config
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	if c.P <= 0 || c.Q <= 0 {
		return fmt.Errorf("node2vec: p and q must be positive (p=%g q=%g)", c.P, c.Q)
	}
	if c.NumWalks < 1 || c.WalkLen < 2 {
		return fmt.Errorf("node2vec: need NumWalks ≥ 1 and WalkLen ≥ 2 (got %d, %d)", c.NumWalks, c.WalkLen)
	}
	return c.SGNS.Validate()
}

// Embed trains node2vec embeddings for every node of g.
func Embed(g *graph.Temporal, cfg Config, seed int64) (*tensor.Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, err := walk.NewNode2VecWalker(g, cfg.P, cfg.Q)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var seqs [][]graph.NodeID
	for r := 0; r < cfg.NumWalks; r++ {
		for v := 0; v < g.NumNodes(); v++ {
			id := graph.NodeID(v)
			if g.Degree(id) == 0 {
				continue
			}
			if seq := w.Walk(id, cfg.WalkLen, rng); len(seq) >= 2 {
				seqs = append(seqs, seq)
			}
		}
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("node2vec: graph has no walkable nodes")
	}
	noise, err := skipgram.DegreeNoise(g)
	if err != nil {
		return nil, err
	}
	m, err := skipgram.Train(seqs, g.NumNodes(), noise, cfg.SGNS, seed)
	if err != nil {
		return nil, err
	}
	return m.Emb, nil
}
