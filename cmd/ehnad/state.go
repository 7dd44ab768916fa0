// The node state: what this daemon is and what it does with a write.
// Its role is leader, or follower (applies its leader's stream; client
// writes refuse until promoted). Its phase is serving; read-only (a WAL
// append or fsync failed, so writes refuse with errReadOnly and searches
// keep serving until durable.heal mends the log); or draining.
//
// A state is immutable and published through one atomic pointer, so a
// write's admission check is one load. The transition methods are its
// only writers, and each change logs one "from → to (cause)" line.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"
)

var errReadOnly = errors.New("read-only mode: WAL persistence failed; writes disabled until the log heals")
var errFollower = errors.New("writes go to the shard leader")

type phase uint8

const (
	phaseServing phase = iota
	phaseReadOnly
	phaseDraining
)

type role uint8

const (
	roleLeader role = iota
	roleFollower
)

func (p phase) String() string { return [...]string{"serving", "read-only", "draining"}[p] }
func (r role) String() string  { return [...]string{"leader", "follower"}[r] }

type nodeState struct {
	phase phase
	role  role
	cause string // the first fault since the last heal, kept through a drain
	since int64  // unix seconds of that fault
}

// writable reports whether the log takes appends, whatever the phase.
func (st *nodeState) writable() bool { return st.cause == "" }

// notReady lists why /readyz refuses traffic; none means ready.
func (st *nodeState) notReady() (reasons []string) {
	if st.phase == phaseDraining {
		reasons = append(reasons, "draining: shutdown in progress")
	}
	if !st.writable() {
		reasons = append(reasons, "read-only: WAL unavailable")
	}
	return reasons
}

type node struct {
	mu  sync.Mutex // orders transitions and their log lines
	cur atomic.Pointer[nodeState]
}

// boot publishes the first state: serving, in role r.
func (n *node) boot(r role) { n.cur.Store(&nodeState{role: r}) }

func (n *node) load() *nodeState { return n.cur.Load() }

// move publishes what step makes of the current state.
func (n *node) move(why string, step func(*nodeState)) (from nodeState, changed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	from = *n.cur.Load()
	to := from
	step(&to)
	if changed = to != from; changed {
		n.cur.Store(&to)
		log.Printf("ehnad: %s/%s → %s/%s (%s)", from.phase, from.role, to.phase, to.role, why)
	}
	return from, changed
}

// fault: serving → read-only. The first cause and time stay until the
// heal; a draining node stays draining but refuses writes.
func (n *node) fault(err error) {
	n.move(err.Error(), func(st *nodeState) {
		if st.cause == "" {
			st.cause, st.since = err.Error(), time.Now().Unix()
			if st.phase == phaseServing {
				st.phase = phaseReadOnly
			}
		}
	})
}

// healed: read-only → serving, once the reconciliation snapshot is
// taken; a draining node takes writes again.
func (n *node) healed(attempts int64) {
	n.move(fmt.Sprintf("wal healed after %d attempts", attempts), func(st *nodeState) {
		st.cause, st.since = "", 0
		if st.phase == phaseReadOnly {
			st.phase = phaseServing
		}
	})
}

// promote: follower → leader in any phase; reports whether it changed.
func (n *node) promote(why string) bool {
	_, changed := n.move(why, func(st *nodeState) { st.role = roleLeader })
	return changed
}

// drain: any phase → draining, returning the phase it left. Only a node
// that was serving takes a final snapshot.
func (n *node) drain(why string) phase {
	from, _ := n.move(why, func(st *nodeState) { st.phase = phaseDraining })
	return from.phase
}
