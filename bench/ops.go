package main

import (
	"math/rand"
	"strconv"
)

// The seeded op streams. Every request body is built here, before any
// clock starts; the program under test receives only these bytes.

const (
	topK         = 10
	queriesPerRq = 32  // raw-vector queries per read_batch request
	readBodyPool = 256 // distinct read_batch bodies, cycled through the window
)

// gaussian draws a dim-vector of independent N(0,1) components.
func gaussian(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// datasetVectors regenerates the vectors ehnad-mkstore -seed writes
// (one NormFloat64 stream from rand.NewSource(seed), row by row), so
// the harness can score ground truth against the full-precision set
// without reading it back out of the quantized snapshot.
func datasetVectors(seed int64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = gaussian(rng, dim)
	}
	return out
}

func appendVector(b []byte, v []float64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, ']')
}

// batchBody encodes one /v1/neighbors request carrying several
// raw-vector queries.
func batchBody(queries [][]float64) []byte {
	b := []byte(`{"k":` + strconv.Itoa(topK) + `,"queries":[`)
	for i, q := range queries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"vector":`...)
		b = appendVector(b, q)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// singleBody encodes one single-query /v1/neighbors request.
func singleBody(q []float64) []byte {
	b := []byte(`{"k":` + strconv.Itoa(topK) + `,"vector":`)
	b = appendVector(b, q)
	return append(b, '}')
}

// upsertBody encodes one /v1/upsert request.
func upsertBody(id uint32, v []float64) []byte {
	b := []byte(`{"id":` + strconv.FormatUint(uint64(id), 10) + `,"vector":`)
	b = appendVector(b, v)
	return append(b, '}')
}

// readStream is the read_batch op stream: a pool of distinct request
// bodies (each queriesPerRq held-out Gaussian queries) that the window
// cycles through. The pool keeps the pre-generated bodies at ~10 MB;
// the daemon caches no query, so a repeated body costs what a new one
// does.
type readStream struct {
	queries [][][]float64 // pool index → the request's query vectors
	bodies  [][]byte
}

func genReadStream(seed int64, dim int) readStream {
	rng := rand.New(rand.NewSource(seed ^ 0x5ead))
	var s readStream
	for i := 0; i < readBodyPool; i++ {
		qs := make([][]float64, queriesPerRq)
		for j := range qs {
			qs[j] = gaussian(rng, dim)
		}
		s.queries = append(s.queries, qs)
		s.bodies = append(s.bodies, batchBody(qs))
	}
	return s
}

// mixedOp is one write_mixed request: a single-vector read, or an
// upsert of a new id (≥ n) or of an id the dataset already holds.
type mixedOp struct {
	write bool
	fresh bool // upsert of an id not yet in the store
	id    uint32
	vec   []float64
	body  []byte
}

// genMixedStream draws ops requests: each a read or an upsert with equal
// probability, each upsert a new id or an overwrite with equal
// probability. New ids count up from n, so no op can fail on a missing
// key and the final contents are known from the stream alone.
func genMixedStream(seed int64, ops, n, dim int) []mixedOp {
	rng := rand.New(rand.NewSource(seed ^ 0x3417e))
	next := uint32(n)
	out := make([]mixedOp, ops)
	for i := range out {
		op := mixedOp{vec: gaussian(rng, dim)}
		if rng.Intn(2) == 0 {
			op.body = singleBody(op.vec)
		} else {
			op.write = true
			if rng.Intn(2) == 0 {
				op.fresh, op.id = true, next
				next++
			} else {
				op.id = uint32(rng.Intn(n))
			}
			op.body = upsertBody(op.id, op.vec)
		}
		out[i] = op
	}
	return out
}
