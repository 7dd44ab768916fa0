// Package testutil provides deterministic graph fixtures shared by the
// test suites of the baselines, evaluation and experiment packages.
package testutil

import (
	"math/rand"

	"ehna/internal/graph"
	"ehna/internal/tensor"
)

// TwoCommunities returns a temporal graph of 2·half nodes forming two dense
// communities (each an Erdős–Rényi block with probability p) joined by a
// single bridge edge. Timestamps are uniform in [0, 1]. The membership of
// node v is v < half.
func TwoCommunities(half int, p float64, seed int64) *graph.Temporal {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewTemporal(2 * half)
	block := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				if rng.Float64() < p {
					mustAdd(g, graph.NodeID(i), graph.NodeID(j), rng.Float64())
				}
			}
		}
	}
	block(0, half)
	block(half, 2*half)
	mustAdd(g, graph.NodeID(half-1), graph.NodeID(half), 0.5)
	g.Build()
	return g
}

func mustAdd(g *graph.Temporal, u, v graph.NodeID, t float64) {
	if err := g.AddEdge(u, v, 1, t); err != nil {
		panic(err)
	}
}

// CommunitySeparation returns (intraMean, interMean) squared Euclidean
// distances of emb rows under the TwoCommunities labeling with the given
// half size.
func CommunitySeparation(emb *tensor.Matrix, half int) (intra, inter float64) {
	var nIntra, nInter int
	n := 2 * half
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := tensor.SqDistVec(emb.Row(i), emb.Row(j))
			if (i < half) == (j < half) {
				intra += d
				nIntra++
			} else {
				inter += d
				nInter++
			}
		}
	}
	return intra / float64(nIntra), inter / float64(nInter)
}

// CommunityScoreSeparation is CommunitySeparation but with dot-product
// scores (higher = more similar), returning (intraMean, interMean).
func CommunityScoreSeparation(emb *tensor.Matrix, half int) (intra, inter float64) {
	var nIntra, nInter int
	n := 2 * half
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := tensor.DotVec(emb.Row(i), emb.Row(j))
			if (i < half) == (j < half) {
				intra += d
				nIntra++
			} else {
				inter += d
				nInter++
			}
		}
	}
	return intra / float64(nIntra), inter / float64(nInter)
}
