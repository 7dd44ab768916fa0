package experiments

import (
	"time"

	"ehna/internal/datagen"
)

// EfficiencyResult reproduces Table VIII: wall-clock seconds per training
// epoch for every method and dataset. Node2Vec and CTDNE additionally get
// multi-worker rows (the paper's "_10" multi-threaded variants).
type EfficiencyResult struct {
	Methods []string
	Seconds map[string]map[datagen.Dataset]float64
}

// RunEfficiency reproduces Table VIII over the given datasets.
func RunEfficiency(s Settings, datasets []datagen.Dataset) (*EfficiencyResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// One-epoch settings so the timing is per epoch.
	one := s
	one.SGNSEpochs = 1
	one.EHNAEpochs = 1
	one.HTNEEpochs = 1

	serial := one
	serial.Workers = 1
	parallel := one

	methods := []struct {
		name string
		m    Method
	}{
		{"Node2Vec", serial.Methods()[1]},
		{"Node2Vec_W", parallel.Methods()[1]},
		{"CTDNE", serial.Methods()[2]},
		{"CTDNE_W", parallel.Methods()[2]},
		{"LINE", one.Methods()[0]},
		{"HTNE", one.Methods()[3]},
		{"EHNA", serial.Methods()[4]},
		{"EHNA_W", parallel.Methods()[4]},
	}
	res := &EfficiencyResult{Seconds: make(map[string]map[datagen.Dataset]float64)}
	for _, m := range methods {
		res.Methods = append(res.Methods, m.name)
		res.Seconds[m.name] = make(map[datagen.Dataset]float64)
	}
	for _, d := range datasets {
		g, err := datagen.Generate(d, s.Scale, s.Seed)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			start := time.Now()
			if _, err := m.m.Embed(g, s.Seed); err != nil {
				return nil, err
			}
			res.Seconds[m.name][d] = time.Since(start).Seconds()
		}
	}
	return res, nil
}
