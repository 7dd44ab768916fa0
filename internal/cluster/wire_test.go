package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ehna/internal/ann"
	"ehna/internal/graph"
)

// benchBody is a read_batch-shaped request: k 10, n raw-vector queries
// of dim Gaussian coordinates in strconv's shortest 'g' form, which is
// how the benchmark harness writes them.
func benchBody(seed int64, n, dim int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := []byte(`{"k":10,"queries":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"vector":[`...)
		for j := 0; j < dim; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, rng.NormFloat64(), 'g', -1, 64)
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}"...)
}

// decodeSeeds are inputs on both sides of the fast path's contract:
// canonical shapes it must take, and every kind it must hand over.
var decodeSeeds = []string{
	`{"k":3}`, `{"K":3}`, `{"k":1e1}`, `{"k":1.0}`, `{"k":-0}`, `{"k":01}`,
	`{"k":99999999999999999999}`, `{"k":123456789012345678}`,
	`[01]`, `[1.]`, `null`, ``, ` `, `{}`, ` { } `, `{"k":3}trailing`, `{"k":3} {"k":4}`,
	`{"vector":[1,2.5,-3e-7]}`, `{"vector":[]}`, `{"vector":null}`, `{"vector":[01]}`,
	`{"vector":[1.]}`, `{"vector":[1e400]}`, `{"vector":[-1e400]}`, `{"vector":[1e-400]}`,
	`{"vector":[-0]}`, `{"vector":[-0.0e5]}`, `{"vector":[0e999999]}`,
	`{"vector":[12345678901234567890123]}`, `{"vector":[1.00000000000000000000000001]}`,
	`{"vector":[0.000000000000000000000000000000000000001234567890123456789]}`,
	`{"vector":[4.9406564584124654e-324]}`, `{"vector":[2.2250738585072011e-308]}`,
	`{"vector":[1.7976931348623157e308]}`, `{"vector":[1.7976931348623159e308]}`,
	`{"vector":[9007199254740993]}`, `{"vector":[1E+2,1e-2,1E2]}`,
	`{"id":3}`, `{"id":3,"k":2}`, `{"vector":[1],"id":3}`,
	`{"\u006b":3}`, `{"k":3,"k":4}`, `{"queries":[],"queries":[]}`, `{"unknown":1}`,
	`{"queries":[]}`, `{"queries":null}`, `{"queries":[{}]}`, `{"queries":[null]}`,
	`{"queries":[{"vector":[1,2]},{"vector":[]},{"k":4}]}`,
	`{"queries":[{"vector":[1],"vector":[2]}]}`, `{"queries":[{"id":1}]}`,
	`{"queries":[{"vector":[1]}],"vector":[2,3],"k":5,"deadline_ms":20}`,
	`{"deadline_ms":-5,"k":-1}`, `{"queries":[{"vector":[1]},]}`, `{"k":3,}`,
	"{\n\t\"k\" : 3 ,\r\n \"queries\" : [ { \"vector\" : [ 1 , 2 ] } ] }",
	`{"k":"3"}`, `{"k":true}`, `{"queries":{}}`, `{"vector":[1,"2"]}`, `{"k":3`,
	`{"queries":[{"vector":[1,2]}`, "{\"k\":3,\"vector\":[1,\x00]}", "\xef\xbb\xbf{}",
}

// checkDecode holds the codec to encoding/json on b: the fast path
// accepts only what encoding/json accepts, and the full decode (fast
// or fallback) yields the same error text, or deep-equal values with
// equal float bits. It reports whether the fast path took b.
func checkDecode(t testing.TB, b []byte) bool {
	t.Helper()
	var want NeighborsRequest
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	fast := (&NeighborsBody{buf: b}).decodeFast()
	if fast && wantErr != nil {
		t.Fatalf("fast path accepted %q, which encoding/json refuses: %v", b, wantErr)
	}
	nb := &NeighborsBody{buf: b}
	err := nb.decode()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("decode %q: error %v, encoding/json %v", b, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("decode %q: error %q, encoding/json %q", b, err, wantErr)
	case err == nil:
		sameRequest(t, b, nb.Req, want)
	}
	return fast
}

func sameRequest(t testing.TB, b []byte, got, want NeighborsRequest) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q:\n got %+v\nwant %+v", b, got, want)
	}
	sameBits := func(g, w []float64) {
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("decode %q: coordinate %d = %v (%#x), encoding/json %v (%#x)",
					b, i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
			}
		}
	}
	sameBits(got.Vector, want.Vector)
	for i := range want.Queries {
		sameBits(got.Queries[i].Vector, want.Queries[i].Vector)
	}
}

func TestDecodeNeighborsRequestMatchesJSON(t *testing.T) {
	for _, s := range decodeSeeds {
		checkDecode(t, []byte(s))
	}
	// The shapes clients and the router send must take the fast path.
	for _, s := range []string{
		`{"k":3}`, `{"vector":[1,2.5,-3e-7]}`, `{"vector":[]}`, `{"queries":[]}`, `{"queries":[{}]}`,
		`{"queries":[{"vector":[1,2]},{"vector":[]},{"k":4}]}`,
		`{"queries":[{"vector":[1]}],"vector":[2,3],"k":5,"deadline_ms":20}`,
		`{"vector":[1e-400]}`, `{"k":3} trailing`,
		"{\n\t\"k\" : 3 ,\r\n \"queries\" : [ { \"vector\" : [ 1 , 2 ] } ] }",
		string(benchBody(1, 32, 64)),
	} {
		if !checkDecode(t, []byte(s)) {
			t.Errorf("%.80q went to encoding/json", s)
		}
	}
	// The router's own scatter encoding decodes on the fast path too.
	body, ok := appendScatter(nil, []NeighborQuery{
		{Vector: []float64{0.5, -1e-9, 3e22}, K: 11}, {Vector: []float64{1}, K: 1}})
	if !ok || !checkDecode(t, body) {
		t.Errorf("scatter body %q went to encoding/json", body)
	}
}

// upsertBodyOf is a write_mixed-shaped /v1/upsert body: one id and dim
// Gaussian coordinates in strconv's shortest 'g' form, as the benchmark
// harness writes them.
func upsertBodyOf(seed int64, id uint32, dim int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := strconv.AppendUint([]byte(`{"id":`), uint64(id), 10)
	b = append(b, `,"vector":[`...)
	for j := 0; j < dim; j++ {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, rng.NormFloat64(), 'g', -1, 64)
	}
	return append(b, "]}"...)
}

// upsertSeeds are upsert bodies on both sides of the fast path's
// contract.
var upsertSeeds = []string{
	`{"id":7,"vector":[1,2.5,-3e-7]}`, `{"vector":[1,2.5,-3e-7],"id":7}`,
	"{\n\t\"id\" : 7 ,\r\n \"vector\" : [ 1 , 2 ] }\n", ` {"id":0,"vector":[0]} `,
	`{"updates":[{"id":1,"vector":[1]},{"id":2,"vector":[2,3]}]}`, `{"updates":[]}`, `{"updates":[{}]}`,
	`{"id":1,"vector":[1],"updates":[{"id":2,"vector":[2]}]}`,
	`{"id":-1,"vector":[1]}`, `{"id":1.0,"vector":[1]}`, `{"id":1e2,"vector":[1]}`, `{"id":-0,"vector":[1]}`,
	`{"id":4294967295,"vector":[1]}`, `{"id":4294967296,"vector":[1]}`, `{"id":99999999999,"vector":[1]}`,
	`{"id":null,"vector":[1]}`, `{"id":"1","vector":[1]}`, `{"id":01,"vector":[1]}`, `{"id":true}`,
	`{"vector":[1]}`, `{"id":1}`, `{"id":1,"vector":[]}`, `{"id":1,"vector":null}`, `{}`,
	`{"id":1,"id":2,"vector":[1]}`, `{"id":1,"vector":[1],"vector":[2]}`,
	`{"\u0069d":1,"vector":[1]}`, `{"ID":1,"Vector":[1]}`, `{"id":1,"vector":[1],"other":1}`,
	`{"id":1,"vector":[1]}trailing`, `{"id":1,"vector":[1]} {"id":2}`,
	`{"id":1,"vector":[1,`, `{"id":1`, `{"id":1,"vector":[1]`, ``, ` `, `null`, `[]`,
	`{"id":1,"vector":[1e400]}`, `{"id":1,"vector":[1,"2"]}`, `{"id":1,"vector":[01]}`,
	"\xef\xbb\xbf{\"id\":1}",
}

// checkUpsertDecode holds the upsert decoder to encoding/json on b as
// checkDecode does the neighbors decoder, and reports whether the fast
// path took b.
func checkUpsertDecode(t testing.TB, b []byte) bool {
	t.Helper()
	var want UpsertRequest
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	_, fast := (&upsertBody{buf: b}).decodeFast()
	if fast && wantErr != nil {
		t.Fatalf("fast path accepted upsert %q, which encoding/json refuses: %v", b, wantErr)
	}
	got, err := ReadUpsertRequest(bytes.NewReader(b), -1)
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		t.Fatalf("decode upsert %q: error %v, encoding/json %v", b, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("decode upsert %q:\n got %+v\nwant %+v", b, got, want)
	}
	for i, w := range want.Vector {
		if g := got.Vector[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("decode upsert %q: coordinate %d = %v, encoding/json %v", b, i, g, w)
		}
	}
	return fast
}

func TestUpsertRequestMatchesEncodingJSON(t *testing.T) {
	for _, s := range upsertSeeds {
		checkUpsertDecode(t, []byte(s))
	}
	// The shapes clients and the benchmark send must take the fast path.
	for _, s := range []string{
		`{"id":7,"vector":[1,2.5,-3e-7]}`, `{"vector":[1,2.5,-3e-7],"id":7}`, `{"id":4294967295,"vector":[1]}`,
		`{"id":1,"vector":[]}`, `{"id":1}`, `{"id":1,"vector":[1]} {"id":2}`,
		"{\n\t\"id\" : 7 ,\r\n \"vector\" : [ 1 , 2 ] }\n", string(upsertBodyOf(1, 123456, 64)),
	} {
		if !checkUpsertDecode(t, []byte(s)) {
			t.Errorf("%.80q went to encoding/json", s)
		}
	}
	for _, s := range []string{`{"updates":[{"id":1,"vector":[1]}]}`, `{"id":-1,"vector":[1]}`, `{"id":null,"vector":[1]}`} {
		if _, fast := (&upsertBody{buf: []byte(s)}).decodeFast(); fast {
			t.Errorf("%q took the fast path", s)
		}
	}
	// The decoded vector is the caller's: a later decode through the
	// same pooled body must not write into it.
	a, err := ReadUpsertRequest(strings.NewReader(`{"id":1,"vector":[1,2]}`), -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadUpsertRequest(strings.NewReader(`{"id":2,"vector":[3,4]}`), -1); err != nil {
		t.Fatal(err)
	}
	if a.Vector[0] != 1 || a.Vector[1] != 2 || *a.ID != 1 {
		t.Fatalf("first request changed to %v/%v by the second decode", *a.ID, a.Vector)
	}
}

// TestDecodeSlabLayout pins what the handlers rely on: batch vectors
// are capacity-limited windows of one slab, the single vector is not in
// it, and empty lists decode non-nil.
func TestDecodeSlabLayout(t *testing.T) {
	nb, err := ReadNeighborsRequest(strings.NewReader(
		`{"vector":[9,9],"queries":[{"vector":[1,2]},{"vector":[]},{"vector":[3]}]}`), -1)
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Release()
	qs := nb.Req.Queries
	if &qs[0].Vector[0] != &nb.slab[0] || &qs[2].Vector[0] != &nb.slab[2] {
		t.Error("batch vectors are not windows of the slab")
	}
	if cap(qs[0].Vector) != 2 || qs[1].Vector == nil || cap(qs[1].Vector) != 0 {
		t.Errorf("vector capacities %d/%d, nil %v", cap(qs[0].Vector), cap(qs[1].Vector), qs[1].Vector == nil)
	}
	if len(nb.slab) != 3 {
		t.Errorf("slab holds %d coordinates, want only the 3 batch ones", len(nb.slab))
	}
	if reuse(make([]float64, 0, maxPooledBytes/8+1)) != nil || reuse(make([]byte, 0, maxPooledBytes)) == nil {
		t.Error("reuse does not cut at maxPooledBytes")
	}
}

// TestDecodeAllocs: a warm 32-query decode allocates nothing beyond the
// reader the test hands it.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	body := benchBody(2, 32, 64)
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(body)
		nb, err := ReadNeighborsRequest(r, int64(len(body)))
		if err != nil {
			t.Fatal(err)
		}
		nb.Release()
	})
	if allocs > 1 {
		t.Fatalf("a 32-query decode allocated %v times", allocs)
	}
}

func TestPow10Table(t *testing.T) {
	for e := pow10Min; e <= pow10Max; e++ {
		// 10^e normalized to 128 bits and rounded down: shift 10^e up, or
		// divide 2^(127+bitlen(10^-e)) by 10^-e.
		ten := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		x := new(big.Int)
		if e >= 0 {
			x.Lsh(ten, uint(128-ten.BitLen()))
		} else {
			x.Quo(x.Lsh(big.NewInt(1), uint(127+ten.BitLen())), ten)
		}
		lo := new(big.Int).And(x, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		hi := new(big.Int).Rsh(x, 64).Uint64()
		if got := pow10Table[e-pow10Min]; got != [2]uint64{lo, hi} {
			t.Errorf("1e%d: table %#x, want {%#x, %#x}", e, got, lo, hi)
		}
	}
}

// checkScanFloat holds scanFloat to strconv.ParseFloat on s: a JSON
// number ParseFloat converts must scan whole to the same bits, and
// whatever scanFloat accepts must be a JSON number ParseFloat agrees on.
func checkScanFloat(t testing.TB, s string) {
	t.Helper()
	got, end, ok := scanFloat([]byte(s), 0)
	if want, err := strconv.ParseFloat(s, 64); err == nil && isJSONNumber(s) {
		if !ok || end != len(s) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("scanFloat(%q) = %v (%#x), end %d, ok %v; ParseFloat %v (%#x)",
				s, got, math.Float64bits(got), end, ok, want, math.Float64bits(want))
		}
	}
	if ok {
		tok := s[:end]
		want, err := strconv.ParseFloat(tok, 64)
		if !isJSONNumber(tok) || err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("scanFloat(%q) accepted %q as %v; ParseFloat %v, %v", s, tok, got, want, err)
		}
	}
}

func isJSONNumber(s string) bool {
	return s != "" && (s[0] == '-' || isDigit(s[0])) && isDigit(s[len(s)-1]) && json.Valid([]byte(s))
}

var floatSeeds = []string{
	"0", "-0", "1", "-1", "0.1", "1e1", "1E+1", "1e-1", "01", "1.", ".5", "-", "+1", "1e", "1e+",
	"1e400", "-1e400", "1e-400", "4.9406564584124654e-324", "2.2250738585072011e-308",
	"1.7976931348623157e308", "9007199254740993", "9007199254740992.5", "0.30000000000000004",
	"123456789012345678901234567890", "1.23456789012345678901234567890", "100000000000000000000000",
	"0.000000000000000000000000000000000000001", "1e-30", "1e30", "1e31", "1e-31", "1e22", "1e23",
	"-0.6457263186085574", "7.888609052210118e-31", "1e-05", "Infinity", "NaN", "0x1p3",
}

func TestScanFloatMatchesParseFloat(t *testing.T) {
	for _, s := range floatSeeds {
		checkScanFloat(t, s)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		var f float64
		switch i % 4 {
		case 0:
			f = rng.NormFloat64()
		case 1:
			f = math.Float64frombits(rng.Uint64())
		case 2:
			f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(80)-40))
		default:
			f = float64(rng.Int63n(1<<62)) / math.Pow(10, float64(rng.Intn(40)))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		for _, format := range []byte{'g', 'e', 'f'} {
			checkScanFloat(t, strconv.FormatFloat(f, format, -1, 64))
		}
		checkScanFloat(t, strconv.FormatFloat(f, 'e', rng.Intn(25), 64))
	}
}

// ackSource builds acks from fuzz bytes: list shapes, ids, and scores
// from raw float bits (NaN, ±Inf, subnormals and -0 included) or from
// short decimals.
type ackSource struct{ b []byte }

func (s *ackSource) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *ackSource) u64() uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(s.next())
	}
	return x
}

func (s *ackSource) score() float64 {
	switch c := s.next(); c % 3 {
	case 0:
		return math.Float64frombits(s.u64())
	case 1:
		return float64(int32(s.u64())) / math.Pow(10, float64(c%40))
	default:
		return float64(int32(s.u64())) * math.Pow(10, float64(c%30))
	}
}

func (s *ackSource) results() []ann.Result {
	n := int(s.next())
	if n == 255 {
		return nil
	}
	rs := make([]ann.Result, n%12)
	for i := range rs {
		rs[i] = ann.Result{ID: graph.NodeID(s.u64()), Score: s.score()}
	}
	return rs
}

func (s *ackSource) status() SearchStatus {
	c := s.next()
	return SearchStatus{Degraded: c&1 != 0, ShardsAnswered: int(int8(s.next())), ShardsTotal: int(c >> 1)}
}

// checkEncode holds appendJSON to json.NewEncoder on v: equal bytes, or
// equal errors.
func checkEncode(t testing.TB, v any) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(v)
	got, err := appendJSON(nil, v)
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		t.Fatalf("encode %+v: error %v, encoding/json %v", v, err, wantErr)
	case err == nil && !bytes.Equal(got, want.Bytes()):
		t.Fatalf("encode %+v:\n got %s\nwant %s", v, got, want.Bytes())
	}
}

// checkAckDecode holds the shard-ack decoder to encoding/json on b as
// checkDecode does the request decoder, and reports the fast path.
func checkAckDecode(t testing.TB, b []byte) bool {
	t.Helper()
	var want NeighborsBatchAck
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	fast := (&batchAckBody{buf: b}).decodeFast()
	if fast && wantErr != nil {
		t.Fatalf("fast path accepted ack %q, which encoding/json refuses: %v", b, wantErr)
	}
	ab := &batchAckBody{buf: b}
	err := ab.decode()
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		t.Fatalf("decode ack %q: error %v, encoding/json %v", b, err, wantErr)
	case err == nil && !reflect.DeepEqual(ab.ack, want):
		t.Fatalf("decode ack %q:\n got %+v\nwant %+v", b, ab.ack, want)
	}
	for i := range want.Batches {
		for j := range want.Batches[i] {
			if g, w := ab.ack.Batches[i][j].Score, want.Batches[i][j].Score; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("decode ack %q: score [%d][%d] = %v, encoding/json %v", b, i, j, g, w)
			}
		}
	}
	return fast
}

// checkAcks builds one of each wire value from data and holds every
// encoder to encoding/json, then reads the data itself as a shard ack.
func checkAcks(t testing.TB, data []byte) {
	t.Helper()
	src := &ackSource{b: data}
	checkEncode(t, NeighborsAck{Results: src.results(), SearchStatus: src.status()})
	var batch NeighborsBatchAck
	canonical := true
	if n := int(src.next()); n != 255 {
		batch.Batches = make([][]ann.Result, n%6)
		for i := range batch.Batches {
			batch.Batches[i] = src.results()
			canonical = canonical && batch.Batches[i] != nil
		}
	} else {
		canonical = false
	}
	batch.SearchStatus = src.status()
	checkEncode(t, batch)
	// A daemon's ack reaches the router's fast path unless it holds a null.
	if enc, err := appendJSON(nil, batch); err == nil && checkAckDecode(t, enc) != canonical {
		t.Fatalf("ack %s: fast path %v, want %v", enc, !canonical, canonical)
	}

	qs := make([]NeighborQuery, 1+src.next()%4)
	for i := range qs {
		for j := int(src.next() % 5); j > 0; j-- {
			qs[i].Vector = append(qs[i].Vector, src.score())
		}
		qs[i].K = int(int8(src.next()))
	}
	checkEncode(t, UpsertAck{Upserted: int(int64(src.u64())), Seq: src.u64() >> (src.next() % 65), Nodes: int(int32(src.u64()))})

	want, wantErr := json.Marshal(NeighborsRequest{Queries: qs})
	got, ok := appendScatter(nil, qs)
	if ok != (wantErr == nil) || ok && !bytes.Equal(got, want) {
		t.Fatalf("encode scatter %+v:\n got %s (%v)\nwant %s (%v)", qs, got, ok, want, wantErr)
	}
	checkAckDecode(t, data)
}

var ackSeeds = []string{
	`{"batches":[[{"id":1,"score":0.5},{"id":2,"score":-1e-7}],[]],"degraded":true}`,
	`{"batches":[[{"score":1,"id":4294967295}]],"shards_answered":1,"shards_total":2}`,
	`{"batches":[[{"id":4294967296,"score":1}]]}`, `{"batches":[[{"id":-1,"score":1}]]}`,
	`{"batches":[[{"id":1.0,"score":1}]]}`, `{"batches":[null]}`, `{"batches":null}`,
	`{"batches":[[{"id":1,"id":2}]]}`, `{"batches":[],"degraded":false}`, `{"degraded":null}`,
	`{"degraded":tru}`, `{"results":[]}`, `{"batches":[[{}]]}`, `{"error":"x"}`,
	"\x00\x01\xff\x07\x10\x40\x00\x00\x00\x00\x00\x00\x03\x7f\xf8\x00\x00\x00\x00\x00\x00\x02",
}

func TestAckCodecMatchesJSON(t *testing.T) {
	for _, s := range ackSeeds {
		checkAcks(t, []byte(s))
	}
	edges := []float64{0, math.Copysign(0, -1), 1e-6, 9.999999e-7, 1e-7, 1e21, 9.99e20, 1e-300,
		5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 123456789.125, 1e20, 0.1, -2.5e-10}
	var rs []ann.Result
	for i, f := range edges {
		rs = append(rs, ann.Result{ID: graph.NodeID(i * 1000003), Score: f})
	}
	for _, v := range []any{
		NeighborsAck{}, NeighborsAck{Results: []ann.Result{}}, NeighborsAck{Results: rs},
		NeighborsAck{Results: rs, SearchStatus: SearchStatus{Degraded: true, ShardsAnswered: 1, ShardsTotal: 2}},
		NeighborsBatchAck{}, NeighborsBatchAck{Batches: [][]ann.Result{nil, {}, rs}},
		NeighborsBatchAck{Batches: [][]ann.Result{rs}, SearchStatus: SearchStatus{ShardsTotal: -3}},
		NeighborsAck{Results: []ann.Result{{ID: 1, Score: math.NaN()}}},
		NeighborsBatchAck{Batches: [][]ann.Result{{{ID: 1, Score: math.Inf(-1)}}}},
		map[string]any{"error": "<tag> & \"quotes\""}, errorBody{Error: "x"},
		UpsertAck{}, UpsertAck{Upserted: 1, Seq: 7, Nodes: 5000}, UpsertAck{Upserted: -2, Nodes: math.MinInt},
		UpsertAck{Upserted: math.MaxInt, Seq: math.MaxUint64, Nodes: 1},
	} {
		checkEncode(t, v)
	}
}

// TestWriteJSONUnencodable: a value encoding/json refuses is a 500
// carrying the error, not a 200 with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, NeighborsAck{Results: []ann.Result{{ID: 7, Score: math.NaN()}}})
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, body %q (%v)", rec.Code, rec.Body, err)
	}
	if want := "encode response: json: unsupported value: NaN"; body.Error != want {
		t.Fatalf("error %q, want %q", body.Error, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %s for a %d-byte body", cl, rec.Body.Len())
	}
}

func FuzzDecodeNeighborsRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Add(benchBody(4, 2, 8))
	f.Fuzz(func(t *testing.T, b []byte) { checkDecode(t, b) })
}

func FuzzDecodeUpsertRequest(f *testing.F) {
	for _, s := range upsertSeeds {
		f.Add([]byte(s))
	}
	f.Add(upsertBodyOf(6, 42, 8))
	f.Fuzz(func(t *testing.T, b []byte) { checkUpsertDecode(t, b) })
}

func FuzzScanFloat(f *testing.F) {
	for _, s := range floatSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkScanFloat(t, s) })
}

// FuzzNeighborsAckEncode holds the ack and scatter encoders to
// encoding/json over acks built from the input, and the shard-ack
// decoder over the input itself.
func FuzzNeighborsAckEncode(f *testing.F) {
	for _, s := range ackSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAcks(t, data) })
}

func BenchmarkDecodeNeighborsRequest32(b *testing.B) {
	body := benchBody(5, 32, 64)
	r := bytes.NewReader(body)
	b.Run("std", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(body)
			var req NeighborsRequest
			if err := json.NewDecoder(r).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(body)
			nb, err := ReadNeighborsRequest(r, int64(len(body)))
			if err != nil {
				b.Fatal(err)
			}
			nb.Release()
		}
	})
}

func BenchmarkDecodeUpsertRequest(b *testing.B) {
	body := upsertBodyOf(7, 4242, 64)
	r := bytes.NewReader(body)
	b.Run("std", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(body)
			var req UpsertRequest
			if err := json.NewDecoder(r).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(body)
			if _, err := ReadUpsertRequest(r, int64(len(body))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
