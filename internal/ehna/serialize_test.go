package ehna

import (
	"bytes"
	"strings"
	"testing"

	"ehna/internal/graph"
	"ehna/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := twoCommunityGraph(t)
	m, err := NewModel(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.TrainEpoch()
	before := m.InferAll()

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(g, &buf)
	if err != nil {
		t.Fatal(err)
	}
	after := loaded.InferAll()
	if !tensor.Equal(before, after, 1e-12) {
		t.Fatal("loaded model produces different embeddings")
	}
	// Loaded model must remain trainable.
	if loss := loaded.TrainEpoch(); loss < 0 {
		t.Fatalf("loaded model training loss %g", loss)
	}
}

func TestLoadRejectsWrongGraphSize(t *testing.T) {
	g := twoCommunityGraph(t)
	m, err := NewModel(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := graph.NewTemporal(3)
	_ = other.AddEdge(0, 1, 1, 0.5)
	other.Build()
	if _, err := Load(other, &buf); err == nil {
		t.Fatal("mismatched graph accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	g := twoCommunityGraph(t)
	if _, err := Load(g, strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(g, strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestSaveLoadProperty is the round-trip property resumed training
// depends on: across varied configurations, save → load → save is
// byte-identical and the embedding table survives bit-for-bit.
func TestSaveLoadProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := smallConfig()
		cfg.Seed = seed
		cfg.Dim = 4 + int(seed)*2
		cfg.LSTMLayers = 1 + int(seed)%2
		g := twoCommunityGraph(t)
		m, err := NewModel(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.TrainEpoch()

		var buf1 bytes.Buffer
		if err := m.Save(&buf1); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(g, bytes.NewReader(buf1.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var buf2 bytes.Buffer
		if err := loaded.Save(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			t.Fatalf("seed %d: save → load → save not byte-identical (%d vs %d bytes)",
				seed, buf1.Len(), buf2.Len())
		}
		if !tensor.Equal(m.RawEmbeddings(), loaded.RawEmbeddings(), 0) {
			t.Fatalf("seed %d: embedding table not bit-identical after round trip", seed)
		}
	}
}

func TestSaveLoadPreservesAblationConfig(t *testing.T) {
	g := twoCommunityGraph(t)
	cfg := smallConfig()
	cfg.SingleLevel = true
	m, err := NewModel(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(g, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Config().SingleLevel {
		t.Fatal("config not preserved")
	}
}
