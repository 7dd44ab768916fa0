package experiments

import (
	"bytes"
	"strings"
	"testing"

	"ehna/internal/datagen"
	"ehna/internal/eval"
)

// tiny returns settings small enough for unit tests.
func tiny() Settings {
	s := Quick()
	s.Scale = 0.02
	s.Repeats = 2
	s.EHNAWalks = 3
	s.EHNAWalkLen = 4
	s.SGNSEpochs = 1
	s.LINESamples = 20_000
	s.HTNEEpochs = 2
	s.Workers = 1 // hogwild SGNS is deliberately racy; keep tests race-clean
	return s
}

// skipIfShort guards the heavier end-to-end runners: under -race they
// multiply past the package test timeout.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping heavy experiment runner in -short mode")
	}
}

func TestSettingsValidate(t *testing.T) {
	if err := Quick().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Full().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Settings){
		func(s *Settings) { s.Scale = 0 },
		func(s *Settings) { s.Dim = 7 },
		func(s *Settings) { s.Repeats = 0 },
		func(s *Settings) { s.EHNAEpochs = 0 },
		func(s *Settings) { s.EHNAWalks = 0 },
		func(s *Settings) { s.EHNAWalkLen = 1 },
		func(s *Settings) { s.LINESamples = 0 },
	}
	for i, mut := range bad {
		s := Quick()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestMethodsRoster(t *testing.T) {
	ms := Quick().Methods()
	if len(ms) != 5 {
		t.Fatalf("%d methods", len(ms))
	}
	want := []string{"LINE", "Node2Vec", "CTDNE", "HTNE", "EHNA"}
	for i, m := range ms {
		if m.Name != want[i] {
			t.Fatalf("method %d = %s want %s", i, m.Name, want[i])
		}
	}
}

func TestAllMethodsEmbedTinyGraph(t *testing.T) {
	skipIfShort(t)
	s := tiny()
	g, err := datagen.Generate(datagen.Digg, s.Scale, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range s.Methods() {
		emb, err := m.Embed(g, 1)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if emb.Rows != g.NumNodes() || emb.Cols != s.Dim {
			t.Fatalf("%s: shape %dx%d", m.Name, emb.Rows, emb.Cols)
		}
	}
}

func TestRunFig4(t *testing.T) {
	skipIfShort(t)
	s := tiny()
	r, err := RunFig4(s, datagen.Digg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Ps) == 0 || len(r.Precisions) != 5 {
		t.Fatalf("ps %v methods %d", r.Ps, len(r.Precisions))
	}
	for name, prec := range r.Precisions {
		if len(prec) != len(r.Ps) {
			t.Fatalf("%s: %d precisions for %d Ps", name, len(prec), len(r.Ps))
		}
		for _, p := range prec {
			if p < 0 || p > 1 {
				t.Fatalf("%s: precision %g out of range", name, p)
			}
		}
	}
	var buf bytes.Buffer
	PrintFig4(&buf, r)
	if !strings.Contains(buf.String(), "EHNA") {
		t.Fatal("printer output missing method")
	}
}

func TestRunLinkPred(t *testing.T) {
	skipIfShort(t)
	s := tiny()
	r, err := RunLinkPred(s, datagen.DBLP)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Methods) != 5 {
		t.Fatalf("%d methods", len(r.Methods))
	}
	for _, op := range eval.Operators {
		for _, m := range r.Methods {
			mt := r.Cells[op][m]
			for _, v := range []float64{mt.AUC, mt.F1, mt.Precision, mt.Recall} {
				if v < 0 || v > 1 {
					t.Fatalf("%s/%s metric %g out of range", op, m, v)
				}
			}
		}
		if _, ok := r.ErrorReduction[op]["F1"]; !ok {
			t.Fatal("missing error reduction")
		}
	}
	var buf bytes.Buffer
	PrintLinkPred(&buf, r)
	if !strings.Contains(buf.String(), "Weighted-L2") {
		t.Fatal("printer output missing operator")
	}
}

func TestRunAblation(t *testing.T) {
	skipIfShort(t)
	s := tiny()
	ds := []datagen.Dataset{datagen.Digg}
	r, err := RunAblation(s, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Variants) != 4 {
		t.Fatalf("%d variants", len(r.Variants))
	}
	for _, v := range r.Variants {
		f1 := r.F1[v][datagen.Digg]
		if f1 < 0 || f1 > 1 {
			t.Fatalf("%s F1 %g", v, f1)
		}
	}
	var buf bytes.Buffer
	PrintAblation(&buf, r, ds)
	if !strings.Contains(buf.String(), "EHNA-SL") {
		t.Fatal("printer output missing variant")
	}
}

func TestRunEfficiency(t *testing.T) {
	skipIfShort(t)
	s := tiny()
	ds := []datagen.Dataset{datagen.Digg}
	r, err := RunEfficiency(s, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Methods) != 8 {
		t.Fatalf("%d methods", len(r.Methods))
	}
	for _, m := range r.Methods {
		if r.Seconds[m][datagen.Digg] <= 0 {
			t.Fatalf("%s: non-positive time", m)
		}
	}
	var buf bytes.Buffer
	PrintEfficiency(&buf, r, ds)
	if !strings.Contains(buf.String(), "Node2Vec_W") {
		t.Fatal("printer output missing multi-worker row")
	}
}

func TestRunParamSweep(t *testing.T) {
	skipIfShort(t)
	s := tiny()
	s.Repeats = 1
	r, err := RunParamSweep(s, datagen.Digg, SweepMargin)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 5 {
		t.Fatalf("%d points", len(r.Points))
	}
	var buf bytes.Buffer
	PrintSweep(&buf, r)
	if !strings.Contains(buf.String(), "margin") {
		t.Fatal("printer output missing label")
	}
	if _, err := RunParamSweep(s, datagen.Digg, SweepParam("bogus")); err == nil {
		t.Fatal("unknown sweep accepted")
	}
}

func TestRunOperatorCombo(t *testing.T) {
	skipIfShort(t)
	s := tiny()
	r, err := RunOperatorCombo(s, datagen.Digg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.F1) != 5 || len(r.AUC) != 5 {
		t.Fatalf("feature sets: %d F1, %d AUC", len(r.F1), len(r.AUC))
	}
	for name, v := range r.AUC {
		if v < 0 || v > 1 {
			t.Fatalf("%s AUC %g", name, v)
		}
	}
	var buf bytes.Buffer
	PrintCombo(&buf, r)
	if !strings.Contains(buf.String(), "Combined") {
		t.Fatal("printer output missing Combined row")
	}
}

func TestRunNodeClassification(t *testing.T) {
	skipIfShort(t)
	s := tiny()
	r, err := RunNodeClassification(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Accuracy) != 5 {
		t.Fatalf("%d methods", len(r.Accuracy))
	}
	for name, acc := range r.Accuracy {
		if acc < 0 || acc > 1 {
			t.Fatalf("%s accuracy %g", name, acc)
		}
	}
	var buf bytes.Buffer
	PrintNodeClass(&buf, r)
	if !strings.Contains(buf.String(), "Accuracy") {
		t.Fatal("printer missing header")
	}
}
