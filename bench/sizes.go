package main

// Op counts are fixed per run, not timed out: the same seed and
// -seconds give the same work, so counts, RSS and quality repeat exactly
// and only wall time floats. The counts are -seconds times the nominal
// rates below, which are what the reference box sustains on the one CPU
// the harness binds everything to; a faster program finishes its window
// sooner, it is not given more work.
const (
	nominalTrainEdgesPerSec = 37.0   // serial EdgeLoss + Backward + optimizer step at the default config
	nominalReadReqPerSec    = 160.0  // 32-query requests over 5000×64 sq8 hnsw at ef-search 192
	nominalWriteOpsPerSec   = 1000.0 // half of them fsynced upserts
	nominalRestartsPerSec   = 88.0   // exec to first answer, mmap store + graph gob
)

// Serving dataset. 5000 vectors is the largest set whose serial graph
// build lets the set-up be repeated three times inside a run's budget;
// slab + graph fit the L2 cache, which BENCHMARK.json states.
const (
	datasetN   = 5000
	datasetDim = 64
	truthProbe = 200 // held-out queries with exact top-k truth
)

// recallFloor fails a run whose mean recall@10 is below it.
const recallFloor = 0.95

type sizes struct {
	setups      int // set-ups per run; setup_s is their median
	trainEpochs int // measured epochs; one more runs first as warm-up
	trainEdges  int // edges per epoch
	readReqs    int // measured read_batch requests; a tenth more run first as warm-up
	writeOps    int // measured write_mixed requests
	restarts    int // measured restarts
	layerOps    int // in-process calls per layer function on a traced run
}

// sizesFor sizes a run for a measured window of about seconds on the
// reference box. A traced run measures a third of the window — its
// end-to-end numbers are discarded — and sets up once.
func sizesFor(seconds float64, trace bool) sizes {
	s := sizes{setups: 3, trainEpochs: 10, layerOps: 300}
	if trace {
		seconds /= 3
		s.setups = 1
		s.trainEpochs = 3
	}
	atLeast := func(v float64, floor int) int { return max(int(v), floor) }
	s.trainEdges = atLeast(seconds*nominalTrainEdgesPerSec/float64(s.trainEpochs), 20)
	s.readReqs = atLeast(seconds*nominalReadReqPerSec, 2*minSegmentSamples)
	s.writeOps = atLeast(seconds*nominalWriteOpsPerSec, 4*minSegmentSamples)
	s.restarts = atLeast(seconds*nominalRestartsPerSec, 20)
	return s
}

func (s sizes) describe() map[string]int {
	return map[string]int{
		"dataset_n": datasetN, "dataset_dim": datasetDim, "truth_probes": truthProbe,
		"setups": s.setups, "train_epochs": s.trainEpochs, "train_edges_per_epoch": s.trainEdges,
		"read_requests": s.readReqs, "queries_per_request": queriesPerRq,
		"write_ops": s.writeOps, "restarts": s.restarts, "layer_ops": s.layerOps,
	}
}
