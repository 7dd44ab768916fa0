package experiments

import (
	"fmt"
	"math/rand"

	"ehna/internal/datagen"
	"ehna/internal/ehna"
	"ehna/internal/eval"
)

// AblationResult reproduces Table VII: F1 under the Weighted-L2 operator
// for EHNA and its three ablated variants on every dataset.
type AblationResult struct {
	Variants []string                               // row order
	F1       map[string]map[datagen.Dataset]float64 // variant → dataset → F1
}

// AblationVariants lists Table VII's rows with their config mutations.
func AblationVariants(s Settings) []Method {
	return []Method{
		s.EHNAMethod("EHNA", nil),
		s.EHNAMethod("EHNA-NA", func(c *ehna.Config) { c.DisableAttention = true }),
		s.EHNAMethod("EHNA-RW", func(c *ehna.Config) {
			c.Walk.Static = true
			c.DisableAttention = true // the paper's -RW variant drops attention too
		}),
		s.EHNAMethod("EHNA-SL", func(c *ehna.Config) { c.SingleLevel = true }),
	}
}

// RunAblation reproduces Table VII over the given datasets.
func RunAblation(s Settings, datasets []datagen.Dataset) (*AblationResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	res := &AblationResult{F1: make(map[string]map[datagen.Dataset]float64)}
	variants := AblationVariants(s)
	for _, v := range variants {
		res.Variants = append(res.Variants, v.Name)
		res.F1[v.Name] = make(map[datagen.Dataset]float64)
	}
	for _, d := range datasets {
		full, err := datagen.Generate(d, s.Scale, s.Seed)
		if err != nil {
			return nil, err
		}
		train, held, err := full.SplitByTime(0.2)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(s.Seed + 300))
		data, err := eval.BuildLinkPredData(full, held, rng)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			emb, err := v.Embed(train, s.Seed)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s on %s: %v", v.Name, d, err)
			}
			mt, err := EvalOperator(emb, data, eval.WeightedL2, s.Repeats, s.Seed)
			if err != nil {
				return nil, err
			}
			res.F1[v.Name][d] = mt.F1
		}
	}
	return res, nil
}
