package ehna

import (
	"fmt"
	"math/rand"
	"sort"

	"ehna/internal/ag"
	"ehna/internal/graph"
	"ehna/internal/tensor"
)

// Neighbor is one nearest-neighbor query result.
type Neighbor struct {
	ID     graph.NodeID
	SqDist float64 // squared Euclidean distance in embedding space
}

// NearestNeighbors returns the k nodes closest to node id under squared
// Euclidean distance over the embedding matrix emb (one row per node).
func NearestNeighbors(emb *tensor.Matrix, id graph.NodeID, k int) ([]Neighbor, error) {
	if int(id) >= emb.Rows {
		return nil, fmt.Errorf("ehna: node %d outside embedding table of %d rows", id, emb.Rows)
	}
	if k < 1 {
		return nil, fmt.Errorf("ehna: k %d < 1", k)
	}
	anchor := emb.Row(int(id))
	out := make([]Neighbor, 0, emb.Rows-1)
	for v := 0; v < emb.Rows; v++ {
		if v == int(id) {
			continue
		}
		out = append(out, Neighbor{ID: graph.NodeID(v), SqDist: tensor.SqDistVec(anchor, emb.Row(v))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SqDist != out[j].SqDist {
			return out[i].SqDist < out[j].SqDist
		}
		return out[i].ID < out[j].ID
	})
	if k > len(out) {
		k = len(out)
	}
	return out[:k], nil
}

// EvalLoss computes the mean hinge loss over the given edges WITHOUT
// updating any parameters — a validation metric for held-out (future)
// edges. The walks and negative draws use a fixed seed so repeated calls
// are comparable.
func (m *Model) EvalLoss(edges []graph.Edge) float64 {
	if len(edges) == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed + 104729))
	tp := ag.NewNoGrad()
	var total float64
	for _, e := range edges {
		tp.Reset()
		total += ag.Value(m.EdgeLoss(tp, e, rng))
	}
	return total / float64(len(edges))
}
