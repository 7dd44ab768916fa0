package main

import (
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ehna/internal/ann"
	"ehna/internal/cluster"
	"ehna/internal/embstore"
	"ehna/internal/graph"
)

// nodeAt reaches phase p in role r through the transitions alone; a
// read-only node's cause is "first".
func nodeAt(p phase, r role) *node {
	n := &node{}
	n.boot(r)
	switch p {
	case phaseReadOnly:
		n.fault(errors.New("first"))
	case phaseDraining:
		n.drain("test")
	}
	return n
}

// quietLog drops the transition log lines for the rest of the test.
func quietLog(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
}

// TestNodeTransitions walks every phase × role × event through the
// transition methods and checks the state each one leaves, and what
// promote and drain report.
func TestNodeTransitions(t *testing.T) {
	quietLog(t)
	events := map[string]func(*node) any{
		"fault":   func(n *node) any { n.fault(errors.New("second")); return nil },
		"healed":  func(n *node) any { n.healed(1); return nil },
		"promote": func(n *node) any { return n.promote("test") },
		"drain":   func(n *node) any { return n.drain("test") },
	}
	for _, tc := range []struct {
		from      phase
		event     string
		want      phase
		wantCause string // "" = writable
	}{
		{phaseServing, "fault", phaseReadOnly, "second"},
		{phaseServing, "healed", phaseServing, ""},
		{phaseServing, "promote", phaseServing, ""},
		{phaseServing, "drain", phaseDraining, ""},
		{phaseReadOnly, "fault", phaseReadOnly, "first"}, // the first cause stays
		{phaseReadOnly, "healed", phaseServing, ""},
		{phaseReadOnly, "promote", phaseReadOnly, "first"},
		{phaseReadOnly, "drain", phaseDraining, "first"},
		{phaseDraining, "fault", phaseDraining, "second"},
		{phaseDraining, "healed", phaseDraining, ""},
		{phaseDraining, "promote", phaseDraining, ""},
		{phaseDraining, "drain", phaseDraining, ""},
	} {
		for _, r := range []role{roleLeader, roleFollower} {
			name := tc.from.String() + "/" + r.String() + "/" + tc.event
			n := nodeAt(tc.from, r)
			before := *n.load()
			got := events[tc.event](n)
			st := n.load()
			wantRole := r
			if tc.event == "promote" {
				wantRole = roleLeader
			}
			if st.phase != tc.want || st.role != wantRole || st.cause != tc.wantCause {
				t.Errorf("%s: got %s/%s cause %q, want %s/%s cause %q",
					name, st.phase, st.role, st.cause, tc.want, wantRole, tc.wantCause)
			}
			if st.writable() != (tc.wantCause == "") || (st.since == 0) != (tc.wantCause == "") {
				t.Errorf("%s: writable %v since %d with cause %q", name, st.writable(), st.since, st.cause)
			}
			if st.cause == before.cause && st.since != before.since {
				t.Errorf("%s: fault time moved %d → %d under the same cause", name, before.since, st.since)
			}
			switch tc.event {
			case "promote":
				if got != (r == roleFollower) {
					t.Errorf("%s: promote reported %v", name, got)
				}
			case "drain":
				if got != tc.from {
					t.Errorf("%s: drain left %v, want %s", name, got, tc.from)
				}
			}
		}
	}
}

// TestNodeSecondFaultKeepsFirstCause: a burst of failing writes leaves
// the cause and time of the one that poisoned the log.
func TestNodeSecondFaultKeepsFirstCause(t *testing.T) {
	quietLog(t)
	n := nodeAt(phaseServing, roleLeader)
	n.fault(errors.New("wal commit: EIO"))
	first := *n.load()
	time.Sleep(1100 * time.Millisecond) // past a unix-second boundary
	n.fault(errors.New("wal append: ENOSPC"))
	if st := n.load(); *st != first {
		t.Fatalf("second fault moved the state: %+v → %+v", first, *st)
	}
}

// TestNodeConcurrentTransitions races every transition against readers
// (run it under -race): each published state is whole, a drained node
// never leaves draining, and a promoted node never follows again.
func TestNodeConcurrentTransitions(t *testing.T) {
	quietLog(t)
	n := nodeAt(phaseServing, roleFollower)
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var drained, led bool
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := n.load()
				switch {
				case st.phase == phaseReadOnly && st.writable(), st.phase == phaseServing && !st.writable():
					t.Errorf("torn state %+v", *st)
				case drained && st.phase != phaseDraining:
					t.Errorf("left draining: %+v", *st)
				case led && st.role != roleLeader:
					t.Errorf("follower again: %+v", *st)
				}
				drained, led = st.phase == phaseDraining, st.role == roleLeader
			}
		}()
	}
	for i := 0; i < 4; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			for j := 0; j < 500; j++ {
				switch (i + j) % 7 {
				case 0, 1, 2:
					n.fault(errors.New("injected"))
				case 3, 4, 5:
					n.healed(int64(j))
				case 6:
					if j > 250 {
						n.drain("test")
					} else {
						n.promote("test")
					}
				}
			}
		}(i)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if st := n.load(); st.phase != phaseDraining || st.role != roleLeader {
		t.Fatalf("final state %+v, want draining/leader", *st)
	}
}

// TestReadyzReasonsPerState: /readyz names every reason the node is
// not ready, and only those, in each phase.
func TestReadyzReasonsPerState(t *testing.T) {
	quietLog(t)
	const draining, readOnly = "draining: shutdown in progress", "read-only: WAL unavailable"
	for _, tc := range []struct {
		name  string
		steps func(*node)
		want  []string
	}{
		{"serving", func(*node) {}, nil},
		{"read-only", func(n *node) { n.fault(errors.New("EIO")) }, []string{readOnly}},
		{"healed", func(n *node) { n.fault(errors.New("EIO")); n.healed(1) }, nil},
		{"draining", func(n *node) { n.drain("test") }, []string{draining}},
		{"draining from read-only", func(n *node) { n.fault(errors.New("EIO")); n.drain("test") }, []string{draining, readOnly}},
		{"faulted while draining", func(n *node) { n.drain("test"); n.fault(errors.New("EIO")) }, []string{draining, readOnly}},
	} {
		for _, follow := range []string{"", "http://leader.invalid"} {
			store, err := embstore.New(4, embstore.F32)
			if err != nil {
				t.Fatal(err)
			}
			cfg := serverConfig{index: testIndexOptions("exact"), follow: follow}
			srv := newServer(cfg, store, ann.NewExact(store, ann.Cosine))
			tc.steps(&srv.dur.node)
			rec := httptest.NewRecorder()
			srv.handleReadyz(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
			srv.close()
			var out struct {
				Ready   bool     `json:"ready"`
				Reasons []string `json:"reasons"`
			}
			if err := jsonDecode(rec.Result(), &out); err != nil {
				t.Fatal(err)
			}
			wantCode := http.StatusOK
			if tc.want != nil {
				wantCode = http.StatusServiceUnavailable
			}
			if rec.Code != wantCode || out.Ready != (tc.want == nil) || !reflect.DeepEqual(out.Reasons, tc.want) {
				t.Errorf("%s (follow %q): /readyz %d ready=%v reasons %q, want %d %q",
					tc.name, follow, rec.Code, out.Ready, out.Reasons, wantCode, tc.want)
			}
		}
	}
}

// TestDrainFromReadOnlySkipsFinalSnapshot: a graceful shutdown rotates
// a final snapshot pair only when the node was serving. The fault here
// is injected into the state alone, so the log could still rotate: only
// the phase the drain left decides.
func TestDrainFromReadOnlySkipsFinalSnapshot(t *testing.T) {
	quietLog(t)
	for _, tc := range []struct {
		name      string
		fault     bool
		snapshots int64
	}{{"serving", false, 1}, {"read-only", true, 0}} {
		srv, err := buildServer(crashTestConfig(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		id := graph.NodeID(1)
		if _, err := srv.dur.upsert([]cluster.UpsertUpdate{{ID: &id, Vector: make([]float64, crashDim)}}); err != nil {
			t.Fatal(err)
		}
		if tc.fault {
			srv.dur.node.fault(errors.New("injected"))
		}
		srv.teardown(srv.dur.node.drain("test") == phaseServing) // runDaemon's signal path
		if got := srv.dur.snapshots.Load(); got != tc.snapshots {
			t.Errorf("%s: %d snapshots at shutdown, want %d", tc.name, got, tc.snapshots)
		}
	}
}

// TestFollowerFaultStaysFollower: a fault changes a follower's phase,
// never its role — /v1/repl/status and /healthz still say follower, and
// client writes still get the follower refusal naming the leader.
func TestFollowerFaultStaysFollower(t *testing.T) {
	quietLog(t)
	leader, err := buildServer(crashTestConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.close()
	tsL := httptest.NewServer(leader.handler())
	defer tsL.Close()
	fcfg := crashTestConfig(t.TempDir())
	fcfg.follow = tsL.URL
	follower, err := buildServer(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.close()
	tsF := httptest.NewServer(follower.handler())
	defer tsF.Close()

	follower.dur.node.fault(errors.New("injected"))
	if st := fetchReplStatus(t, tsF.URL); st.Role != "follower" || st.Leader != tsL.URL {
		t.Errorf("/v1/repl/status after a fault = %+v, want follower of %s", st, tsL.URL)
	}
	var hz struct {
		Replication struct {
			Role string `json:"role"`
		} `json:"replication"`
	}
	resp, err := http.Get(tsF.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonDecode(resp, &hz); err != nil || hz.Replication.Role != "follower" {
		t.Errorf("/healthz replication.role = %q (%v), want follower", hz.Replication.Role, err)
	}
	resp, err = http.Post(tsF.URL+"/v1/upsert", "application/json",
		strings.NewReader(`{"id":1,"vector":[1,0,0,0,0,0,0,0]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" ||
		!strings.Contains(string(body), "follower of "+tsL.URL) {
		t.Errorf("upsert to a faulted follower = %d Retry-After %q %s, want the follower refusal",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
}
