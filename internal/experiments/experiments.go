// Package experiments reproduces every table and figure of the paper's
// evaluation (Section V) on the synthetic dataset analogues:
//
//	Figure 4     — network reconstruction precision@P curves (RunFig4)
//	Tables III–VI — link prediction metrics per operator (RunLinkPred)
//	Table VII    — ablation study (RunAblation)
//	Table VIII   — per-epoch training time (RunEfficiency)
//	Figure 5a–d  — parameter sensitivity sweeps (RunParamSweep)
//
// The same runners back cmd/experiments and the repository's bench suite,
// so `go test -bench .` regenerates the numbers.
package experiments

import (
	"fmt"

	"ehna/internal/baselines/ctdne"
	"ehna/internal/baselines/htne"
	"ehna/internal/baselines/line"
	"ehna/internal/baselines/node2vec"
	"ehna/internal/datagen"
	"ehna/internal/ehna"
	"ehna/internal/graph"
	"ehna/internal/skipgram"
	"ehna/internal/tensor"
	"ehna/internal/walk"
)

// Settings sizes a whole experimental run. The paper's absolute scales
// (hundreds of thousands of nodes, d=128) are reduced to CPU-friendly
// values; relative comparisons between methods are what the suite checks.
type Settings struct {
	Scale       datagen.Scale // dataset size multiplier vs datagen defaults
	Dim         int           // embedding dimensionality for every method
	Seed        int64
	Repeats     int // classifier evaluation repeats (paper: 10)
	Workers     int // parallel workers for SGNS-based baselines
	EHNAEpochs  int
	EHNAWalks   int
	EHNAWalkLen int
	SGNSEpochs  int
	LINESamples int
	HTNEEpochs  int
}

// Quick returns the smallest sensible settings; used by the bench suite.
// Sized for single-core CI machines: the entire bench suite finishes in
// minutes rather than hours.
func Quick() Settings {
	return Settings{
		Scale: 0.03, Dim: 16, Seed: 1, Repeats: 2, Workers: 1,
		EHNAEpochs: 1, EHNAWalks: 4, EHNAWalkLen: 5,
		SGNSEpochs: 2, LINESamples: 80_000, HTNEEpochs: 5,
	}
}

// Full returns the settings of the paper-scale run,
// `go run ./cmd/experiments -preset full`.
func Full() Settings {
	return Settings{
		Scale: 0.08, Dim: 16, Seed: 1, Repeats: 5, Workers: 1,
		EHNAEpochs: 2, EHNAWalks: 5, EHNAWalkLen: 6,
		SGNSEpochs: 3, LINESamples: 200_000, HTNEEpochs: 10,
	}
}

// Validate reports a descriptive error for nonsensical settings.
func (s Settings) Validate() error {
	if s.Scale <= 0 {
		return fmt.Errorf("experiments: Scale %g must be positive", float64(s.Scale))
	}
	if s.Dim < 2 || s.Dim%2 != 0 {
		return fmt.Errorf("experiments: Dim %d must be even and ≥ 2 (LINE splits it)", s.Dim)
	}
	if s.Repeats < 1 {
		return fmt.Errorf("experiments: Repeats %d < 1", s.Repeats)
	}
	if s.EHNAEpochs < 1 || s.SGNSEpochs < 1 || s.HTNEEpochs < 1 {
		return fmt.Errorf("experiments: epochs must be ≥ 1")
	}
	if s.EHNAWalks < 1 || s.EHNAWalkLen < 2 {
		return fmt.Errorf("experiments: EHNA walk settings invalid (%d, %d)", s.EHNAWalks, s.EHNAWalkLen)
	}
	if s.LINESamples < 1 {
		return fmt.Errorf("experiments: LINESamples %d < 1", s.LINESamples)
	}
	return nil
}

// Method is one embedding method under evaluation.
type Method struct {
	Name  string
	Embed func(g *graph.Temporal, seed int64) (*tensor.Matrix, error)
}

// EHNAConfig derives the EHNA configuration from the settings.
func (s Settings) EHNAConfig() ehna.Config {
	cfg := ehna.DefaultConfig()
	cfg.Dim = s.Dim
	cfg.Walk = walk.TemporalConfig{P: 1, Q: 1, NumWalks: s.EHNAWalks, WalkLen: s.EHNAWalkLen}
	cfg.Epochs = s.EHNAEpochs
	// Q=3 (vs the paper's 5) keeps the per-edge aggregation count (and so
	// single-core wall time) manageable while preserving the loss shape.
	cfg.Bidirectional = true
	cfg.Negatives = 3
	cfg.EmbLR = 0.1
	cfg.Workers = s.Workers
	cfg.Seed = s.Seed
	return cfg
}

func (s Settings) sgnsConfig() skipgram.Config {
	return skipgram.Config{
		Dim: s.Dim, Window: 5, Negatives: 5, LR: 0.05,
		Epochs: s.SGNSEpochs, Workers: s.Workers,
	}
}

// EHNAMethod returns the EHNA method with an optional config mutation
// (used by the ablation and sensitivity runners).
func (s Settings) EHNAMethod(name string, mutate func(*ehna.Config)) Method {
	return Method{
		Name: name,
		Embed: func(g *graph.Temporal, seed int64) (*tensor.Matrix, error) {
			cfg := s.EHNAConfig()
			cfg.Seed = seed
			if mutate != nil {
				mutate(&cfg)
			}
			m, err := ehna.NewModel(g, cfg)
			if err != nil {
				return nil, err
			}
			m.Train()
			return m.InferAll(), nil
		},
	}
}

// Methods returns the five methods of the paper's comparison in its
// presentation order: LINE, Node2Vec, CTDNE, HTNE, EHNA.
func (s Settings) Methods() []Method {
	return []Method{
		{
			Name: "LINE",
			Embed: func(g *graph.Temporal, seed int64) (*tensor.Matrix, error) {
				cfg := line.DefaultConfig()
				cfg.Dim = s.Dim
				cfg.Samples = s.LINESamples
				return line.Embed(g, cfg, seed)
			},
		},
		{
			Name: "Node2Vec",
			Embed: func(g *graph.Temporal, seed int64) (*tensor.Matrix, error) {
				cfg := node2vec.Config{P: 1, Q: 1, NumWalks: 10, WalkLen: 40, SGNS: s.sgnsConfig()}
				return node2vec.Embed(g, cfg, seed)
			},
		},
		{
			Name: "CTDNE",
			Embed: func(g *graph.Temporal, seed int64) (*tensor.Matrix, error) {
				cfg := ctdne.Config{WalksPerEdgeFactor: 5, WalkLen: 40, SGNS: s.sgnsConfig()}
				return ctdne.Embed(g, cfg, seed)
			},
		},
		{
			Name: "HTNE",
			Embed: func(g *graph.Temporal, seed int64) (*tensor.Matrix, error) {
				cfg := htne.DefaultConfig()
				cfg.Dim = s.Dim
				cfg.Epochs = s.HTNEEpochs
				return htne.Embed(g, cfg, seed)
			},
		},
		s.EHNAMethod("EHNA", nil),
	}
}
