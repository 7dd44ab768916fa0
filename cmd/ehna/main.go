// Command ehna is the library's command-line front end.
//
// Subcommands:
//
//	ehna datagen  -dataset Digg -scale 0.1 -out graph.tsv
//	    Generate a synthetic temporal network and write it as TSV.
//
//	ehna train    -graph graph.tsv [-out emb.tsv] [-snapshot store.snap] [-dim 32] [-epochs 1] ...
//	    Train EHNA embeddings on a temporal edge list; -snapshot writes
//	    them as the store snapshot ehnad -snapshot serves.
//
//	ehna reconstruct -graph graph.tsv -emb emb.tsv [-sample 400]
//	    Evaluate network reconstruction precision@P with the embeddings.
//
//	ehna linkpred -graph graph.tsv [-dim 32] ...
//	    Run the full link-prediction protocol (temporal split, EHNA
//	    training, logistic-regression probe over all four operators).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"ehna/internal/classify"
	"ehna/internal/datagen"
	"ehna/internal/ehna"
	"ehna/internal/embstore"
	"ehna/internal/eval"
	"ehna/internal/faultfs"
	"ehna/internal/graph"
	"ehna/internal/tensor"
	"ehna/internal/walk"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "datagen":
		err = cmdDatagen(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "reconstruct":
		err = cmdReconstruct(os.Args[2:])
	case "linkpred":
		err = cmdLinkPred(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "embed":
		err = cmdEmbed(os.Args[2:])
	case "visualize":
		err = cmdVisualize(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ehna: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ehna <datagen|train|embed|reconstruct|linkpred|stats|visualize> [flags]")
	os.Exit(2)
}

func cmdDatagen(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ExitOnError)
	dataset := fs.String("dataset", "Digg", "dataset analogue: Digg, Yelp, Tmall, DBLP")
	scale := fs.Float64("scale", 0.1, "size multiplier vs the built-in defaults")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output TSV path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := datagen.Generate(datagen.Dataset(*dataset), datagen.Scale(*scale), *seed)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	st := g.ComputeStats()
	fmt.Fprintf(os.Stderr, "generated %s: %d nodes, %d temporal edges, mean degree %.1f\n",
		*dataset, st.Nodes, st.Edges, st.MeanDegree)
	return g.WriteTSV(w)
}

func loadGraph(path string) (*graph.Temporal, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ReadTSV(f)
	if err != nil {
		return nil, err
	}
	g.NormalizeTimes()
	return g, nil
}

func ehnaFlags(fs *flag.FlagSet) func() ehna.Config {
	dim := fs.Int("dim", 32, "embedding dimensionality")
	epochs := fs.Int("epochs", 1, "training epochs")
	walks := fs.Int("walks", 10, "temporal random walks per target (k)")
	walkLen := fs.Int("walklen", 10, "walk length (ℓ)")
	p := fs.Float64("p", 1, "return parameter p")
	q := fs.Float64("q", 1, "in-out parameter q")
	margin := fs.Float64("margin", 5, "hinge safety margin m")
	seed := fs.Int64("seed", 1, "training seed")
	return func() ehna.Config {
		cfg := ehna.DefaultConfig()
		cfg.Dim = *dim
		cfg.Epochs = *epochs
		cfg.Walk = walk.TemporalConfig{P: *p, Q: *q, NumWalks: *walks, WalkLen: *walkLen}
		cfg.Margin = *margin
		cfg.Seed = *seed
		cfg.Bidirectional = true
		return cfg
	}
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	graphPath := fs.String("graph", "", "input temporal edge list (TSV)")
	out := fs.String("out", "", "output embedding TSV path (default stdout, unless -snapshot is the only output)")
	snapshot := fs.String("snapshot", "", "output v3 embstore snapshot path: the embeddings as ehnad -snapshot serves them")
	mkCfg := ehnaFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		return fmt.Errorf("train: -graph is required")
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	model, err := ehna.NewModel(g, mkCfg())
	if err != nil {
		return err
	}
	for i, loss := range model.Train() {
		fmt.Fprintf(os.Stderr, "epoch %d: loss %.4f\n", i+1, loss)
	}
	emb := model.InferAll()
	if *snapshot != "" {
		if err := writeSnapshot(*snapshot, emb); err != nil {
			return err
		}
		if *out == "" {
			return nil
		}
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return writeEmbeddings(w, emb)
}

// writeSnapshot exports emb (row i is node i) as an f32 v3 store
// snapshot: the training→serving hand-off.
func writeSnapshot(path string, emb *tensor.Matrix) error {
	store, err := embstore.FromMatrix(emb, embstore.F32)
	if err != nil {
		return err
	}
	return faultfs.WriteFileAtomic(faultfs.OS(), path, func(f faultfs.File) error {
		return store.SaveSnapshotV3(f, 0)
	})
}

func writeEmbeddings(w *os.File, emb *tensor.Matrix) error {
	return emb.WriteTSV(w)
}

func readEmbeddings(path string) (*tensor.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tensor.ReadTSV(f)
}

func cmdReconstruct(args []string) error {
	fs := flag.NewFlagSet("reconstruct", flag.ExitOnError)
	graphPath := fs.String("graph", "", "input temporal edge list (TSV)")
	embPath := fs.String("emb", "", "embedding TSV (from ehna train)")
	sampleN := fs.Int("sample", 400, "nodes sampled for reconstruction ranking")
	seed := fs.Int64("seed", 1, "sampling seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" || *embPath == "" {
		return fmt.Errorf("reconstruct: -graph and -emb are required")
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	emb, err := readEmbeddings(*embPath)
	if err != nil {
		return err
	}
	if emb.Rows != g.NumNodes() {
		return fmt.Errorf("embedding rows %d != graph nodes %d", emb.Rows, g.NumNodes())
	}
	nodes := sampleNodesFor(g, *sampleN, *seed)
	maxPairs := len(nodes) * (len(nodes) - 1) / 2
	var ps []int
	for _, p := range []int{100, 300, 1000, 3000, 10000, 30000} {
		if p <= maxPairs {
			ps = append(ps, p)
		}
	}
	prec, err := eval.PrecisionAtP(g, emb, nodes, ps)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s%12s\n", "P", "Precision")
	for i, p := range ps {
		fmt.Printf("%-10d%12.4f\n", p, prec[i])
	}
	return nil
}

func cmdLinkPred(args []string) error {
	fs := flag.NewFlagSet("linkpred", flag.ExitOnError)
	graphPath := fs.String("graph", "", "input temporal edge list (TSV)")
	repeats := fs.Int("repeats", 10, "probe evaluation repeats")
	mkCfg := ehnaFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		return fmt.Errorf("linkpred: -graph is required")
	}
	full, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	train, held, err := full.SplitByTime(0.2)
	if err != nil {
		return err
	}
	cfg := mkCfg()
	model, err := ehna.NewModel(train, cfg)
	if err != nil {
		return err
	}
	for i, loss := range model.Train() {
		fmt.Fprintf(os.Stderr, "epoch %d: loss %.4f\n", i+1, loss)
	}
	emb := model.InferAll()
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	data, err := eval.BuildLinkPredData(full, held, rng)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s%10s%10s%10s%10s\n", "Operator", "AUC", "F1", "Prec", "Recall")
	for _, op := range eval.Operators {
		var auc, f1, prec, rec float64
		for r := 0; r < *repeats; r++ {
			rr := rand.New(rand.NewSource(cfg.Seed + int64(r)))
			trainD, testD, err := data.Split(0.5, rr)
			if err != nil {
				return err
			}
			Xtr := eval.EdgeFeatures(emb, trainD.Pairs, op)
			Xte := eval.EdgeFeatures(emb, testD.Pairs, op)
			ccfg := classify.DefaultConfig()
			ccfg.Seed = cfg.Seed + int64(r)
			clf, err := classify.Train(Xtr, trainD.Labels, ccfg)
			if err != nil {
				return err
			}
			a, err := eval.AUC(clf.PredictProba(Xte), testD.Labels)
			if err != nil {
				return err
			}
			conf, err := eval.Confuse(clf.Predict(Xte), testD.Labels)
			if err != nil {
				return err
			}
			auc += a
			f1 += conf.F1()
			prec += conf.Precision()
			rec += conf.Recall()
		}
		inv := 1 / float64(*repeats)
		fmt.Printf("%-14s%10.4f%10.4f%10.4f%10.4f\n", op, auc*inv, f1*inv, prec*inv, rec*inv)
	}
	return nil
}
