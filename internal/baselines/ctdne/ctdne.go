// Package ctdne implements the CTDNE baseline (Nguyen et al., WWW 2018):
// continuous-time dynamic network embeddings. Random walks are constrained
// to be forward-in-time (consecutive edges have non-decreasing timestamps)
// and feed the same skip-gram model as node2vec. Per the paper's setup,
// initial edges and subsequent hops are sampled uniformly.
package ctdne

import (
	"fmt"
	"math/rand"

	"ehna/internal/graph"
	"ehna/internal/skipgram"
	"ehna/internal/tensor"
	"ehna/internal/walk"
)

// Config parameterizes the baseline.
type Config struct {
	WalksPerEdgeFactor float64 // walks sampled = factor × |E| (≥ 1 recommended)
	WalkLen            int
	SGNS               skipgram.Config
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	if c.WalksPerEdgeFactor <= 0 {
		return fmt.Errorf("ctdne: WalksPerEdgeFactor %g must be positive", c.WalksPerEdgeFactor)
	}
	if c.WalkLen < 2 {
		return fmt.Errorf("ctdne: WalkLen %d < 2", c.WalkLen)
	}
	return c.SGNS.Validate()
}

// Embed trains CTDNE embeddings for every node of g.
func Embed(g *graph.Temporal, cfg Config, seed int64) (*tensor.Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	edges := g.Edges()
	if len(edges) == 0 {
		return nil, fmt.Errorf("ctdne: empty graph")
	}
	w := walk.NewCTDNEWalker(g)
	rng := rand.New(rand.NewSource(seed))
	n := int(cfg.WalksPerEdgeFactor * float64(len(edges)))
	if n < 1 {
		n = 1
	}
	var seqs [][]graph.NodeID
	for i := 0; i < n; i++ {
		e := edges[rng.Intn(len(edges))] // uniform initial edge selection
		if seq := w.WalkFromEdge(e, cfg.WalkLen, rng); len(seq) >= 2 {
			seqs = append(seqs, seq)
		}
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
