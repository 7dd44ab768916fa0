// Package eval implements the paper's evaluation protocol: the four edge-
// representation operators of Table II, the classification metrics of
// Tables III–VI (AUC, F1, precision, recall and the error-reduction
// statistic), the Precision@P network-reconstruction metric of Figure 4,
// and the dataset assembly helpers (temporal split, balanced negative edge
// sampling, train/test partitioning).
package eval

import (
	"fmt"
	"math/rand"
	"sort"

	"ehna/internal/graph"
	"ehna/internal/tensor"
	"ehna/internal/vecmath"
)

// Operator is one of the binary operators of Table II turning two node
// embeddings into an edge representation.
type Operator int

const (
	// Mean averages the two embeddings element-wise.
	Mean Operator = iota
	// Hadamard multiplies the two embeddings element-wise.
	Hadamard
	// WeightedL1 takes the element-wise absolute difference.
	WeightedL1
	// WeightedL2 takes the element-wise squared difference.
	WeightedL2
)

// Operators lists all four operators in the paper's order.
var Operators = []Operator{Mean, Hadamard, WeightedL1, WeightedL2}

// String returns the paper's name for the operator.
func (op Operator) String() string {
	switch op {
	case Mean:
		return "Mean"
	case Hadamard:
		return "Hadamard"
	case WeightedL1:
		return "Weighted-L1"
	case WeightedL2:
		return "Weighted-L2"
	default:
		return fmt.Sprintf("Operator(%d)", int(op))
	}
}

// Apply writes the edge representation of (ex, ey) into dst through the
// vecmath score kernels.
func (op Operator) Apply(dst, ex, ey []float64) {
	switch op {
	case Mean:
		vecmath.ScoreMean(dst, ex, ey)
	case Hadamard:
		vecmath.ScoreHadamard(dst, ex, ey)
	case WeightedL1:
		vecmath.ScoreL1(dst, ex, ey)
	case WeightedL2:
		vecmath.ScoreL2(dst, ex, ey)
	default:
		panic(fmt.Sprintf("eval: unknown operator %d", int(op)))
	}
}

// NodePair is an unordered candidate node pair.
type NodePair struct {
	U, V graph.NodeID
}

// EdgeFeatures builds the feature matrix for pairs under op from node
// embeddings emb (NumNodes×d).
func EdgeFeatures(emb *tensor.Matrix, pairs []NodePair, op Operator) *tensor.Matrix {
	X := tensor.New(len(pairs), emb.Cols)
	for i, p := range pairs {
		op.Apply(X.Row(i), emb.Row(int(p.U)), emb.Row(int(p.V)))
	}
	return X
}

// AUC computes the area under the ROC curve for scores against binary
// labels (1 = positive) using the rank statistic, with midrank tie
// handling. It returns an error when either class is absent.
func AUC(scores []float64, labels []int) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("eval: %d scores vs %d labels", len(scores), len(labels))
	}
	type sl struct {
		s float64
		l int
	}
	data := make([]sl, len(scores))
	nPos, nNeg := 0, 0
	for i, s := range scores {
		if labels[i] != 0 && labels[i] != 1 {
			return 0, fmt.Errorf("eval: label[%d] = %d is not binary", i, labels[i])
		}
		data[i] = sl{s, labels[i]}
		if labels[i] == 1 {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0, fmt.Errorf("eval: AUC needs both classes (pos=%d neg=%d)", nPos, nNeg)
	}
	sort.Slice(data, func(i, j int) bool { return data[i].s < data[j].s })
	// Midranks over tied scores.
	var rankSumPos float64
	i := 0
	for i < len(data) {
		j := i
		for j < len(data) && data[j].s == data[i].s {
			j++
		}
		midrank := float64(i+j+1) / 2 // average of ranks i+1..j (1-based)
		for k := i; k < j; k++ {
			if data[k].l == 1 {
				rankSumPos += midrank
			}
		}
		i = j
	}
	u := rankSumPos - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg)), nil
}

// Confusion holds binary classification counts.
type Confusion struct {
	TP, FP, TN, FN int
}

// Confuse tallies predictions against labels.
func Confuse(pred, labels []int) (Confusion, error) {
	if len(pred) != len(labels) {
		return Confusion{}, fmt.Errorf("eval: %d predictions vs %d labels", len(pred), len(labels))
	}
	var c Confusion
	for i := range pred {
		switch {
		case pred[i] == 1 && labels[i] == 1:
			c.TP++
		case pred[i] == 1 && labels[i] == 0:
			c.FP++
		case pred[i] == 0 && labels[i] == 0:
			c.TN++
		default:
			c.FN++
		}
	}
	return c, nil
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, 0 when undefined.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// ErrorReduction is the paper's comparison statistic
// ((1−them) − (1−us)) / (1−them): the fraction of the best baseline's error
// eliminated by our method. Negative when ours is worse.
func ErrorReduction(them, us float64) float64 {
	if them >= 1 {
		return 0
	}
	return ((1 - them) - (1 - us)) / (1 - them)
}

// SampleNegativePairs draws n node pairs that share no edge in g (the
// link-prediction negative examples). Pairs exclude the extra forbidden
// set (e.g. held-out test edges). Sampling retries are bounded; an error
// is returned if the graph is too dense to find enough negatives.
func SampleNegativePairs(g *graph.Temporal, n int, forbidden map[NodePair]bool, rng *rand.Rand) ([]NodePair, error) {
	if g.NumNodes() < 2 {
		return nil, fmt.Errorf("eval: graph too small for negative sampling")
	}
	out := make([]NodePair, 0, n)
	maxTries := 100 * n
	for tries := 0; len(out) < n && tries < maxTries; tries++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		p := NodePair{U: u, V: v}
		if g.HasEdge(u, v) || forbidden[p] {
			continue
		}
		out = append(out, p)
	}
	if len(out) < n {
		return nil, fmt.Errorf("eval: found only %d of %d negative pairs", len(out), n)
	}
	return out, nil
}

// CanonicalPair returns the pair with U ≤ V.
func CanonicalPair(u, v graph.NodeID) NodePair {
	if u > v {
		u, v = v, u
	}
	return NodePair{U: u, V: v}
}

// PrecisionAtP evaluates network reconstruction (Figure 4): candidate node
// pairs among sampleNodes are ranked by embedding dot product, and
// precision@P is the fraction of the top P pairs that are true edges of g.
// It returns one precision per requested P (ascending Ps required).
func PrecisionAtP(g *graph.Temporal, emb *tensor.Matrix, sampleNodes []graph.NodeID, Ps []int) ([]float64, error) {
	if len(Ps) == 0 {
		return nil, fmt.Errorf("eval: no P values")
	}
	for i := 1; i < len(Ps); i++ {
		if Ps[i] <= Ps[i-1] {
			return nil, fmt.Errorf("eval: Ps must be strictly ascending")
		}
	}
	if len(sampleNodes) < 2 {
		return nil, fmt.Errorf("eval: need ≥ 2 sample nodes")
	}
	type scored struct {
		pair  NodePair
		score float64
	}
	pairs := make([]scored, 0, len(sampleNodes)*(len(sampleNodes)-1)/2)
	for i := 0; i < len(sampleNodes); i++ {
		for j := i + 1; j < len(sampleNodes); j++ {
			u, v := sampleNodes[i], sampleNodes[j]
			pairs = append(pairs, scored{
				pair:  CanonicalPair(u, v),
				score: vecmath.Dot(emb.Row(int(u)), emb.Row(int(v))),
			})
		}
	}
	maxP := Ps[len(Ps)-1]
	if maxP > len(pairs) {
		return nil, fmt.Errorf("eval: P=%d exceeds %d candidate pairs", maxP, len(pairs))
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].score != pairs[j].score {
			return pairs[i].score > pairs[j].score
		}
		// Deterministic tie-break.
		if pairs[i].pair.U != pairs[j].pair.U {
			return pairs[i].pair.U < pairs[j].pair.U
		}
		return pairs[i].pair.V < pairs[j].pair.V
	})
	out := make([]float64, len(Ps))
	hits := 0
	pi := 0
	for rank := 0; rank < maxP; rank++ {
		if g.HasEdge(pairs[rank].pair.U, pairs[rank].pair.V) {
			hits++
		}
		if rank+1 == Ps[pi] {
			out[pi] = float64(hits) / float64(rank+1)
			pi++
		}
	}
	return out, nil
}

// LinkPredData is a balanced link-prediction dataset: positive pairs are
// the held-out most recent edges, negatives are sampled non-edges.
type LinkPredData struct {
	Pairs  []NodePair
	Labels []int
}

// BuildLinkPredData assembles the paper's link-prediction examples from a
// full graph's held-out edges. Duplicate held-out pairs are kept once.
func BuildLinkPredData(full *graph.Temporal, heldOut []graph.Edge, rng *rand.Rand) (*LinkPredData, error) {
	seen := make(map[NodePair]bool, len(heldOut))
	var pos []NodePair
	for _, e := range heldOut {
		p := CanonicalPair(e.U, e.V)
		if !seen[p] {
			seen[p] = true
			pos = append(pos, p)
		}
	}
	if len(pos) == 0 {
		return nil, fmt.Errorf("eval: no held-out edges")
	}
	neg, err := SampleNegativePairs(full, len(pos), seen, rng)
	if err != nil {
		return nil, err
	}
	d := &LinkPredData{
		Pairs:  make([]NodePair, 0, 2*len(pos)),
		Labels: make([]int, 0, 2*len(pos)),
	}
	for _, p := range pos {
		d.Pairs = append(d.Pairs, p)
		d.Labels = append(d.Labels, 1)
	}
	for _, p := range neg {
		d.Pairs = append(d.Pairs, p)
		d.Labels = append(d.Labels, 0)
	}
	return d, nil
}

// Split partitions the dataset into train/test with the given train
// fraction, shuffling deterministically.
func (d *LinkPredData) Split(trainFrac float64, rng *rand.Rand) (train, test *LinkPredData, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("eval: trainFrac %g outside (0,1)", trainFrac)
	}
	n := len(d.Pairs)
	order := rng.Perm(n)
	cut := int(float64(n) * trainFrac)
	if cut == 0 || cut == n {
		return nil, nil, fmt.Errorf("eval: split leaves an empty side (n=%d)", n)
	}
	mk := func(idx []int) *LinkPredData {
		out := &LinkPredData{Pairs: make([]NodePair, len(idx)), Labels: make([]int, len(idx))}
		for i, j := range idx {
			out.Pairs[i] = d.Pairs[j]
			out.Labels[i] = d.Labels[j]
		}
		return out
	}
	return mk(order[:cut]), mk(order[cut:]), nil
}

// RecallAtK measures approximate nearest-neighbor quality for one query:
// the fraction of the exact top-k IDs that the approximate result set
// recovered (order-insensitive, the standard ANN recall@k). exact defines
// k; approx may be shorter (missing hits count against recall) or longer
// (extra hits are ignored — truncate upstream to audit a stricter k).
func RecallAtK(approx, exact []graph.NodeID) (float64, error) {
	if len(exact) == 0 {
		return 0, fmt.Errorf("eval: recall@k with empty exact set")
	}
	want := make(map[graph.NodeID]bool, len(exact))
	for _, id := range exact {
		want[id] = true
	}
	if len(want) != len(exact) {
		return 0, fmt.Errorf("eval: recall@k exact set has duplicates")
	}
	hits := 0
	for _, id := range approx {
		if want[id] {
			hits++
			want[id] = false // count each exact ID once
		}
	}
	return float64(hits) / float64(len(exact)), nil
}

// MeanRecallAtK averages RecallAtK over aligned per-query result sets —
// the headline number for comparing an approximate index against exact
// search.
func MeanRecallAtK(approx, exact [][]graph.NodeID) (float64, error) {
	if len(approx) != len(exact) {
		return 0, fmt.Errorf("eval: %d approx result sets vs %d exact", len(approx), len(exact))
	}
	if len(exact) == 0 {
		return 0, fmt.Errorf("eval: recall@k with no queries")
	}
	var sum float64
	for i := range exact {
		r, err := RecallAtK(approx[i], exact[i])
		if err != nil {
			return 0, fmt.Errorf("eval: query %d: %v", i, err)
		}
		sum += r
	}
	return sum / float64(len(exact)), nil
}

// CombinedFeatures concatenates several operators' edge representations
// into one feature matrix (len(pairs) × len(ops)·d). The paper notes that
// "the choice of operator may be domain specific ... we are unaware of any
// systematic and sensible evaluation of combining operators" and leaves
// the exploration to future work; this is that extension.
func CombinedFeatures(emb *tensor.Matrix, pairs []NodePair, ops []Operator) (*tensor.Matrix, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("eval: CombinedFeatures needs ≥ 1 operator")
	}
	d := emb.Cols
	X := tensor.New(len(pairs), len(ops)*d)
	for i, p := range pairs {
		row := X.Row(i)
		for k, op := range ops {
			op.Apply(row[k*d:(k+1)*d], emb.Row(int(p.U)), emb.Row(int(p.V)))
		}
	}
	return X, nil
}
