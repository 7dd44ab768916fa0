package experiments

import (
	"fmt"
	"math/rand"

	"ehna/internal/classify"
	"ehna/internal/datagen"
	"ehna/internal/eval"
	"ehna/internal/tensor"
)

// Metrics are the four scores reported per cell of Tables III–VI.
type Metrics struct {
	AUC, F1, Precision, Recall float64
}

// LinkPredResult holds one dataset's link-prediction table
// (the analogue of one of Tables III–VI).
type LinkPredResult struct {
	Dataset datagen.Dataset
	Methods []string
	// Cells[op][method] holds the averaged metrics.
	Cells map[eval.Operator]map[string]Metrics
	// ErrorReduction[op][metric] is EHNA vs the best baseline, as in the
	// paper's rightmost column. Keys: "AUC", "F1", "Precision", "Recall".
	ErrorReduction map[eval.Operator]map[string]float64
}

// RunLinkPred reproduces one of Tables III–VI: hold out the 20% most
// recent edges, train every method on the remainder, probe the four edge
// operators with a logistic regression over `Repeats` random 50/50 splits.
func RunLinkPred(s Settings, dataset datagen.Dataset) (*LinkPredResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	full, err := datagen.Generate(dataset, s.Scale, s.Seed)
	if err != nil {
		return nil, err
	}
	train, held, err := full.SplitByTime(0.2)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed + 200))
	data, err := eval.BuildLinkPredData(full, held, rng)
	if err != nil {
		return nil, err
	}
	res := &LinkPredResult{
		Dataset:        dataset,
		Cells:          make(map[eval.Operator]map[string]Metrics),
		ErrorReduction: make(map[eval.Operator]map[string]float64),
	}
	for _, op := range eval.Operators {
		res.Cells[op] = make(map[string]Metrics)
	}
	for _, m := range s.Methods() {
		res.Methods = append(res.Methods, m.Name)
		emb, err := m.Embed(train, s.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %v", m.Name, dataset, err)
		}
		for _, op := range eval.Operators {
			mt, err := EvalOperator(emb, data, op, s.Repeats, s.Seed)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %v", m.Name, op, err)
			}
			res.Cells[op][m.Name] = mt
		}
	}
	// Error reduction: EHNA vs the best baseline per metric.
	for _, op := range eval.Operators {
		red := make(map[string]float64, 4)
		us := res.Cells[op]["EHNA"]
		pick := func(get func(Metrics) float64) float64 {
			best := 0.0
			for _, name := range res.Methods {
				if name == "EHNA" {
					continue
				}
				if v := get(res.Cells[op][name]); v > best {
					best = v
				}
			}
			return best
		}
		red["AUC"] = eval.ErrorReduction(pick(func(m Metrics) float64 { return m.AUC }), us.AUC)
		red["F1"] = eval.ErrorReduction(pick(func(m Metrics) float64 { return m.F1 }), us.F1)
		red["Precision"] = eval.ErrorReduction(pick(func(m Metrics) float64 { return m.Precision }), us.Precision)
		red["Recall"] = eval.ErrorReduction(pick(func(m Metrics) float64 { return m.Recall }), us.Recall)
		res.ErrorReduction[op] = red
	}
	return res, nil
}

// EvalOperator averages the probe metrics over repeats random 50/50
// train/test splits, exactly mirroring the paper's protocol.
func EvalOperator(emb *tensor.Matrix, data *eval.LinkPredData, op eval.Operator, repeats int, seed int64) (Metrics, error) {
	X := eval.EdgeFeatures(emb, data.Pairs, op)
	var sum Metrics
	for r := 0; r < repeats; r++ {
		rng := rand.New(rand.NewSource(seed + int64(r)*31 + 1))
		shuffled := &eval.LinkPredData{Pairs: data.Pairs, Labels: data.Labels}
		trainIdx, testIdx, err := splitIndices(len(shuffled.Pairs), 0.5, rng)
		if err != nil {
			return Metrics{}, err
		}
		Xtr, ytr := subset(X, data.Labels, trainIdx)
		Xte, yte := subset(X, data.Labels, testIdx)
		cfg := classify.DefaultConfig()
		cfg.Seed = seed + int64(r)
		model, err := classify.Train(Xtr, ytr, cfg)
		if err != nil {
			return Metrics{}, err
		}
		probs := model.PredictProba(Xte)
		auc, err := eval.AUC(probs, yte)
		if err != nil {
			return Metrics{}, err
		}
		conf, err := eval.Confuse(model.Predict(Xte), yte)
		if err != nil {
			return Metrics{}, err
		}
		sum.AUC += auc
		sum.F1 += conf.F1()
		sum.Precision += conf.Precision()
		sum.Recall += conf.Recall()
	}
	inv := 1 / float64(repeats)
	return Metrics{AUC: sum.AUC * inv, F1: sum.F1 * inv, Precision: sum.Precision * inv, Recall: sum.Recall * inv}, nil
}

func splitIndices(n int, frac float64, rng *rand.Rand) (a, b []int, err error) {
	if n < 4 {
		return nil, nil, fmt.Errorf("experiments: dataset too small (%d)", n)
	}
	order := rng.Perm(n)
	cut := int(float64(n) * frac)
	return order[:cut], order[cut:], nil
}

func subset(X *tensor.Matrix, y []int, idx []int) (*tensor.Matrix, []int) {
	out := tensor.New(len(idx), X.Cols)
	labels := make([]int, len(idx))
	for i, j := range idx {
		copy(out.Row(i), X.Row(j))
		labels[i] = y[j]
	}
	return out, labels
}
