package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestReadStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := genReadStream(7, 8), genReadStream(7, 8), genReadStream(8, 8)
	if len(a.bodies) != readBodyPool {
		t.Fatalf("%d bodies, want %d", len(a.bodies), readBodyPool)
	}
	same := true
	for i := range a.bodies {
		if !bytes.Equal(a.bodies[i], b.bodies[i]) {
			t.Fatalf("body %d differs between two streams of one seed", i)
		}
		same = same && bytes.Equal(a.bodies[i], c.bodies[i])
	}
	if same {
		t.Error("seeds 7 and 8 gave the same stream")
	}
	var req struct {
		K       int
		Queries []struct{ Vector []float64 }
	}
	if err := json.Unmarshal(a.bodies[0], &req); err != nil {
		t.Fatalf("body is not JSON: %v", err)
	}
	if req.K != topK || len(req.Queries) != queriesPerRq || len(req.Queries[0].Vector) != 8 {
		t.Errorf("body holds k=%d, %d queries of dim %d", req.K, len(req.Queries), len(req.Queries[0].Vector))
	}
	if req.Queries[3].Vector[5] != a.queries[0][3][5] {
		t.Error("body does not round-trip the query vectors exactly")
	}
}

func TestMixedStreamIsAFunctionOfTheSeed(t *testing.T) {
	const n, dim, ops = 100, 4, 4000
	a, b, c := genMixedStream(3, ops, n, dim), genMixedStream(3, ops, n, dim), genMixedStream(4, ops, n, dim)
	differs := false
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("op %d differs between two streams of one seed", i)
		}
		differs = differs || !bytes.Equal(a[i].body, c[i].body)
	}
	if !differs {
		t.Error("seeds 3 and 4 gave the same stream")
	}

	writes, fresh := 0, 0
	next := uint32(n)
	for i, op := range a {
		if !op.write {
			var req struct{ Vector []float64 }
			if err := json.Unmarshal(op.body, &req); err != nil || len(req.Vector) != dim {
				t.Fatalf("read %d: body %s", i, op.body)
			}
			continue
		}
		writes++
		var req struct {
			ID     *uint32
			Vector []float64
		}
		if err := json.Unmarshal(op.body, &req); err != nil || req.ID == nil || *req.ID != op.id || len(req.Vector) != dim {
			t.Fatalf("upsert %d: body %s", i, op.body)
		}
		if op.fresh {
			fresh++
			if op.id != next {
				t.Fatalf("op %d: new id %d, want %d", i, op.id, next)
			}
			next++
		} else if op.id >= n {
			t.Fatalf("op %d: overwrite of id %d, not in the dataset", i, op.id)
		}
	}
	if writes < ops*45/100 || writes > ops*55/100 || fresh < writes*45/100 || fresh > writes*55/100 {
		t.Errorf("%d writes of %d ops, %d of them new ids: want about half and half", writes, ops, fresh)
	}
}

func TestDatasetVectorsDeterministic(t *testing.T) {
	a, b := datasetVectors(5, 10, 3), datasetVectors(5, 10, 3)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same seed, different dataset")
			}
		}
	}
	if datasetVectors(6, 10, 3)[0][0] == a[0][0] {
		t.Error("seeds 5 and 6 gave the same first component")
	}
}
