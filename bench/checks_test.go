package main

import (
	"os"
	"testing"
)

func hits(ids ...uint32) []hit {
	var out []hit
	for i, id := range ids {
		out = append(out, hit{id, 1 - float64(i)/100})
	}
	return out
}

func TestCheckHits(t *testing.T) {
	good := hits(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	if err := checkHits(good, 10); err != nil {
		t.Errorf("good result list rejected: %v", err)
	}
	unsorted := hits(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	unsorted[4].Score = 2
	for name, c := range map[string]struct {
		hs    []hit
		limit uint32
	}{
		"short":        {good[:9], 10},
		"out of range": {good, 9},
		"unsorted":     {unsorted, 10},
		"duplicate id": {hits(0, 1, 2, 3, 4, 5, 6, 7, 8, 0), 10},
	} {
		if checkHits(c.hs, c.limit) == nil {
			t.Errorf("%s result list accepted", name)
		}
	}
}

func TestRecallOf(t *testing.T) {
	if got := recallOf(hits(1, 2, 3, 4), []uint32{1, 2, 9, 8}); got != 0.5 {
		t.Errorf("recall = %v, want 0.5", got)
	}
}

func TestBruteForceRanksByCosine(t *testing.T) {
	contents := map[uint32][]float64{}
	for i := 0; i < 20; i++ {
		contents[uint32(i)] = []float64{1, float64(i)} // the angle to (1,0) grows with i
	}
	contents[20] = []float64{50, 25} // the direction of (1, 0.5); magnitude must not matter
	got := bruteForce(contents, []float64{1, 0})
	want := []uint32{0, 20, 1, 2, 3, 4, 5, 6, 7, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bruteForce = %v, want %v", got, want)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	m := parseMetrics("# HELP x\n# TYPE x counter\nehnad_batch_size_sum 12\n" +
		"ehnad_http_requests_total{path=\"/v1/upsert\",code=\"200\"} 7\n" +
		"ehnad_http_requests_total{path=\"/v1/neighbors\",code=\"200\"} 5\n" +
		"ehnad_http_requests_total_other 100\nehnad_boot_seconds 0.0125\n")
	if got := sumSeries(m, "ehnad_http_requests_total"); got != 12 {
		t.Errorf("sum over label sets = %v, want 12", got)
	}
	if got := sumSeries(m, "ehnad_boot_seconds"); got != 0.0125 {
		t.Errorf("gauge = %v, want 0.0125", got)
	}
	if got := sumSeries(m, "absent"); got != 0 {
		t.Errorf("absent series = %v, want 0", got)
	}
}

func TestProcReaders(t *testing.T) {
	pid := os.Getpid()
	if _, err := cpuSeconds(pid); err != nil {
		t.Errorf("cpuSeconds(self): %v", err)
	}
	if mb, err := peakRSSMB(pid); err != nil || mb <= 0 {
		t.Errorf("peakRSSMB(self) = %v, %v", mb, err)
	}
	if _, err := cpuSeconds(-1); err == nil {
		t.Error("cpuSeconds of no process succeeded")
	}
	if h := readHostCPU(); h.total <= 0 {
		t.Errorf("readHostCPU total = %v", h.total)
	}
}
