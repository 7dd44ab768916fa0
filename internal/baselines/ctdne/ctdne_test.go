package ctdne

import (
	"testing"

	"ehna/internal/graph"
	"ehna/internal/skipgram"
	"ehna/internal/testutil"
)

func smallConfig() Config {
	return Config{
		WalksPerEdgeFactor: 4, WalkLen: 15,
		SGNS: skipgram.Config{Dim: 16, Window: 4, Negatives: 5, LR: 0.05, Epochs: 3, Workers: 1},
	}
}

func TestConfigValidate(t *testing.T) {
	if err := smallConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{WalksPerEdgeFactor: 0, WalkLen: 2, SGNS: smallConfig().SGNS},
		{WalksPerEdgeFactor: 1, WalkLen: 1, SGNS: smallConfig().SGNS},
		{WalksPerEdgeFactor: 1, WalkLen: 2, SGNS: skipgram.Config{}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestEmbedErrors(t *testing.T) {
	empty := graph.NewTemporal(3)
	empty.Build()
	if _, err := Embed(empty, smallConfig(), 1); err == nil {
		t.Fatal("edgeless graph accepted")
	}
	g := testutil.TwoCommunities(4, 0.9, 1)
	if _, err := Embed(g, Config{}, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestEmbedShape(t *testing.T) {
	g := testutil.TwoCommunities(4, 0.9, 2)
	emb, err := Embed(g, smallConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Rows != g.NumNodes() || emb.Cols != 16 {
		t.Fatalf("shape %dx%d", emb.Rows, emb.Cols)
	}
}

func TestEmbedSeparatesCommunities(t *testing.T) {
	g := testutil.TwoCommunities(8, 0.8, 4)
	emb, err := Embed(g, smallConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	intra, inter := testutil.CommunityScoreSeparation(emb, 8)
	if intra <= inter {
		t.Fatalf("communities not separated: intra %g inter %g", intra, inter)
	}
}
