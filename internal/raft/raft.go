// Package raft implements Raft (Ongaro & Ousterhout, USENIX ATC'14) for
// Dirigent's control-plane high availability (paper §4: "Dirigent uses
// RAFT for control plane leader election"). Beyond leader election (terms,
// randomized election timeouts, RequestVote, step-down on observing a
// higher term), the package replicates a command log: opaque entries —
// Dirigent ships marshaled store ops — flow from the leader to followers
// in pipelined, group-committed AppendEntries batches. The replication
// mirrors wal.FsyncGroup's leader-elected-flusher pattern on the wire:
// every proposal accepted while a replication RPC is in flight rides the
// next batch, so N concurrent control-plane writes cost one quorum round
// trip amortized across the batch, not one per write. The commit index
// advances on quorum acknowledgment and committed entries are handed to
// the Apply callback in order, in batches.
package raft

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/proto"
	"dirigent/internal/transport"
)

// ErrNotLeader is returned by Propose on a non-leader replica, or when
// leadership was lost before the proposal committed. Callers redirect to
// the current leader (see Node.Leader) and retry.
var ErrNotLeader = errors.New("raft: not leader")

// ErrStopped is returned by Propose when the node shut down mid-wait.
var ErrStopped = errors.New("raft: node stopped")

// State is a node's current role.
type State int

// Raft roles.
const (
	Follower State = iota
	Candidate
	Leader
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return "unknown"
	}
}

// Config parameterizes a Node.
type Config struct {
	// ID is this node's address; it must appear in Peers.
	ID string
	// Peers lists all replica addresses, including this node.
	Peers []string
	// Transport carries the vote, heartbeat, and replication RPCs.
	Transport transport.Transport
	// HeartbeatInterval is how often the leader contacts idle followers
	// (an empty AppendEntries doubles as the heartbeat).
	// The paper reports ~10 ms to detect a leader failure, elect a new
	// leader, and resynchronize (§5.4); the defaults are sized to match.
	HeartbeatInterval time.Duration
	// ElectionTimeoutMin/Max bound the randomized election timeout.
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// OnLeaderChange, if non-nil, is invoked (on a dedicated goroutine)
	// whenever this node gains or loses leadership.
	OnLeaderChange func(isLeader bool, term uint64)
	// Apply, if non-nil, receives committed log entries in log order.
	// Entries are delivered in batches (all entries committed since the
	// last delivery), once each, on a single goroutine. Zero-length
	// entries are internal barriers and are delivered too; appliers
	// should skip them.
	Apply func(batch [][]byte)
	// ReadLease bounds follower-read staleness: a follower vouches for
	// its applied state only while it heard from the leader within the
	// lease. 0 selects ElectionTimeoutMin — a follower inside that window
	// cannot have slept through a completed leader change.
	ReadLease time.Duration
	// MaxAppendBatch caps entries per AppendEntries RPC (catch-up after a
	// partition ships in chunks). 0 selects the default (1024).
	MaxAppendBatch int
	// Rejoin marks a node that restarts into an established group after
	// losing its state (log, term, vote — nothing is persisted). Such a
	// node withholds votes until its log has caught up to a leader's
	// commit index: having forgotten who it voted for and which entries
	// it acknowledged, granting a vote early could elect a candidate
	// that misses committed entries (the quorum-intersection argument
	// normally rests on durable vote state). Leave false on first boot —
	// a fresh cluster where every node withheld votes would never elect
	// anyone.
	Rejoin bool
	// Rand provides the election-timeout jitter; nil selects a default
	// source seeded from the node ID for reproducibility.
	Rand *rand.Rand
	// Clock abstracts time for the election and heartbeat loops; nil
	// selects the wall clock. Tests drive a clock.Virtual.
	Clock clock.Clock
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.HeartbeatInterval == 0 {
		out.HeartbeatInterval = 2 * time.Millisecond
	}
	if out.ElectionTimeoutMin == 0 {
		out.ElectionTimeoutMin = 8 * time.Millisecond
	}
	if out.ElectionTimeoutMax == 0 {
		out.ElectionTimeoutMax = 16 * time.Millisecond
	}
	if out.ReadLease == 0 {
		out.ReadLease = out.ElectionTimeoutMin
	}
	if out.MaxAppendBatch <= 0 {
		out.MaxAppendBatch = 1024
	}
	if out.Rand == nil {
		var seed int64 = 1
		for _, b := range []byte(out.ID) {
			seed = seed*131 + int64(b)
		}
		out.Rand = rand.New(rand.NewSource(seed))
	}
	if out.Clock == nil {
		out.Clock = clock.NewReal()
	}
	return out
}

// Node is one Raft participant.
type Node struct {
	cfg Config
	clk clock.Clock

	mu          sync.Mutex
	state       State
	term        uint64
	votedFor    string
	leader      string
	lastContact time.Time
	// voteHeld suppresses vote grants (and campaigns) on a rejoining
	// node until it has caught up to a leader's commit index; see
	// Config.Rejoin.
	voteHeld bool

	// Replicated log. log[i] holds the entry at Raft index i+1; the log
	// is kept whole (no snapshotting), so a revived replica catches up
	// from index 1.
	log         []proto.LogEntry
	commitIndex uint64
	lastApplied uint64

	// Leader-only replication bookkeeping.
	next  map[string]uint64
	match map[string]uint64
	// replStop is closed on step-down so this term's replicators exit;
	// nil while not leader.
	replStop chan struct{}
	// replNotify signals each peer's replicator that new entries await
	// (capacity 1 — a pending signal covers any number of proposals).
	replNotify map[string]chan struct{}

	// appliedCh is closed and remade whenever Propose waiters should
	// recheck (apply progress, term change, leadership loss).
	appliedCh chan struct{}

	// applyNotify wakes the apply loop when commitIndex advances.
	applyNotify chan struct{}

	// Replication batch telemetry: non-empty AppendEntries rounds sent
	// and entries they carried; entries/rounds is the mean wire batch —
	// the on-the-wire analogue of wal group-commit stats.
	statRounds  atomic.Uint64
	statEntries atomic.Uint64

	stopCh  chan struct{}
	wg      sync.WaitGroup
	notify  chan leadership
	started bool
}

type leadership struct {
	isLeader bool
	term     uint64
}

// NewNode creates a Node; call Start to begin participating.
func NewNode(cfg Config) *Node {
	c := cfg.withDefaults()
	return &Node{
		cfg:         c,
		clk:         c.Clock,
		state:       Follower,
		voteHeld:    c.Rejoin,
		appliedCh:   make(chan struct{}),
		applyNotify: make(chan struct{}, 1),
		stopCh:      make(chan struct{}),
		notify:      make(chan leadership, 16),
	}
}

// HandleRPC serves the Raft-owned methods; the control plane multiplexes
// it into its main RPC handler. It returns false if the method is not a
// Raft method.
func (n *Node) HandleRPC(method string, payload []byte) ([]byte, error, bool) {
	switch method {
	case proto.MethodRequestVote:
		req, err := proto.UnmarshalVoteRequest(payload)
		if err != nil {
			return nil, err, true
		}
		resp := n.onRequestVote(req)
		return resp.Marshal(), nil, true
	case proto.MethodAppendEntries:
		req, err := proto.UnmarshalAppendEntriesRequest(payload)
		if err != nil {
			return nil, err, true
		}
		resp := n.onAppendEntries(req)
		return resp.Marshal(), nil, true
	default:
		return nil, nil, false
	}
}

// Start launches the election and apply loops.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.lastContact = n.clk.Now()
	n.mu.Unlock()
	n.wg.Add(3)
	go n.notifyLoop()
	go n.applyLoop()
	go n.run()
}

// Stop terminates the node. It does not notify peers; failure detection is
// timeout-based, as when a process crashes.
func (n *Node) Stop() {
	n.mu.Lock()
	if !n.started {
		n.mu.Unlock()
		return
	}
	n.started = false
	wasLeader := n.state == Leader
	term := n.term
	n.state = Follower
	n.stopReplicatorsLocked()
	n.wakeWaitersLocked()
	n.mu.Unlock()
	close(n.stopCh)
	n.wg.Wait()
	if wasLeader && n.cfg.OnLeaderChange != nil {
		// Deliver the loss synchronously: the notify loop is gone and the
		// embedding control plane is mid-shutdown.
		n.cfg.OnLeaderChange(false, term)
	}
}

// IsLeader reports whether this node currently believes it is the leader.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state == Leader
}

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// Leader returns the address of the last known leader ("" if unknown).
func (n *Node) Leader() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader
}

// State returns the node's current role.
func (n *Node) State() State {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// ReadAllowed reports whether this replica may serve a bounded-staleness
// read from its applied state: leaders always may; a follower only while
// its leader lease is fresh (it heard an AppendEntries within ReadLease,
// so no leader change can have completed behind its back).
func (n *Node) ReadAllowed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == Leader {
		return true
	}
	return n.leader != "" && n.clk.Since(n.lastContact) <= n.cfg.ReadLease
}

// Indexes reports the node's log positions (last log index, commit index,
// last applied), for tests and telemetry.
func (n *Node) Indexes() (lastLog, commit, applied uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return uint64(len(n.log)), n.commitIndex, n.lastApplied
}

// ReplStats reports the number of non-empty AppendEntries rounds this
// leader has sent and the entries they carried; entries/rounds is the mean
// replication batch size (>1 means concurrent proposals shared rounds).
func (n *Node) ReplStats() (rounds, entries uint64) {
	return n.statRounds.Load(), n.statEntries.Load()
}

// Propose appends data to the replicated log and blocks until the entry is
// committed (replicated to a quorum) and applied locally, so a successful
// return guarantees both durability across a minority of failures and
// read-your-write visibility in the local applied state. Concurrent
// proposals coalesce into shared AppendEntries batches. Returns
// ErrNotLeader if this node is not (or stops being) the leader before the
// entry commits.
func (n *Node) Propose(ctx context.Context, data []byte) error {
	n.mu.Lock()
	if !n.started {
		n.mu.Unlock()
		return ErrStopped
	}
	if n.state != Leader {
		n.mu.Unlock()
		return ErrNotLeader
	}
	term := n.term
	n.log = append(n.log, proto.LogEntry{Term: term, Data: data})
	idx := uint64(len(n.log))
	if len(n.cfg.Peers) <= 1 {
		n.advanceCommitLocked(idx)
	}
	n.signalReplicatorsLocked()
	n.mu.Unlock()

	for {
		n.mu.Lock()
		if n.lastApplied >= idx {
			// Applied — but only our entry if no truncation replaced it
			// (impossible while we stayed leader, cheap to verify).
			ok := uint64(len(n.log)) >= idx && n.log[idx-1].Term == term
			n.mu.Unlock()
			if !ok {
				return ErrNotLeader
			}
			return nil
		}
		if n.state != Leader || n.term != term {
			n.mu.Unlock()
			return ErrNotLeader
		}
		ch := n.appliedCh
		n.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-n.stopCh:
			return ErrStopped
		}
	}
}

// Barrier proposes an empty entry and waits for it to commit and apply:
// afterwards the local applied state reflects every write any previous
// leader acknowledged. A freshly elected leader runs this before reading
// its own store during recovery.
func (n *Node) Barrier(ctx context.Context) error {
	return n.Propose(ctx, nil)
}

func (n *Node) notifyLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stopCh:
			return
		case l := <-n.notify:
			if n.cfg.OnLeaderChange != nil {
				n.cfg.OnLeaderChange(l.isLeader, l.term)
			}
		}
	}
}

func (n *Node) sendNotify(isLeader bool, term uint64) {
	select {
	case n.notify <- leadership{isLeader: isLeader, term: term}:
	default:
		// A slow observer must not block elections; drop stale events.
	}
}

// wakeWaitersLocked re-arms appliedCh so every Propose waiter rechecks its
// condition. Called under mu on apply progress and on any term or
// leadership change.
func (n *Node) wakeWaitersLocked() {
	close(n.appliedCh)
	n.appliedCh = make(chan struct{})
}

func (n *Node) signalApplyLocked() {
	select {
	case n.applyNotify <- struct{}{}:
	default:
	}
}

// advanceCommitLocked raises commitIndex to idx (which must already be
// quorum-replicated and term-checked by the caller) and wakes the applier.
func (n *Node) advanceCommitLocked(idx uint64) {
	if idx > n.commitIndex {
		n.commitIndex = idx
		n.signalApplyLocked()
	}
}

// applyLoop delivers committed entries to cfg.Apply in order, in batches:
// one delivery covers everything committed since the previous one, so a
// follower absorbing a large catch-up applies it in few calls.
func (n *Node) applyLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stopCh:
			return
		case <-n.applyNotify:
		}
		for {
			n.mu.Lock()
			if n.lastApplied >= n.commitIndex {
				n.mu.Unlock()
				break
			}
			from := n.lastApplied
			batch := make([][]byte, 0, n.commitIndex-from)
			for i := from; i < n.commitIndex; i++ {
				batch = append(batch, n.log[i].Data)
			}
			n.mu.Unlock()
			// Committed entries are never truncated, so applying outside
			// the lock is safe and keeps replication flowing during slow
			// applies.
			if n.cfg.Apply != nil {
				n.cfg.Apply(batch)
			}
			n.mu.Lock()
			n.lastApplied = from + uint64(len(batch))
			n.wakeWaitersLocked()
			n.mu.Unlock()
		}
	}
}

// electionTimeout draws a randomized timeout from the configured range,
// widened 2x per consecutive failed election (capped at 16x). The backoff
// is the split-vote breaker on starved schedulers: when CPU contention
// delays both candidates' loops by more than the whole base range, the
// configured jitter no longer separates them and they campaign in
// lockstep, splitting the vote term after term. Growing the random range
// until it dwarfs the scheduling quantum restores the asymmetry Raft's
// randomized timeouts rely on.
func (n *Node) electionTimeout(failures int) time.Duration {
	min, max := n.cfg.ElectionTimeoutMin, n.cfg.ElectionTimeoutMax
	if failures > 4 {
		failures = 4
	}
	scale := time.Duration(1) << failures
	if max <= min {
		return min * scale
	}
	return min + time.Duration(n.cfg.Rand.Int63n(int64((max-min)*scale)))
}

func (n *Node) run() {
	defer n.wg.Done()
	failures := 0
	timeout := n.electionTimeout(failures)
	tick := n.cfg.HeartbeatInterval / 2
	if tick <= 0 {
		tick = n.cfg.HeartbeatInterval
	}
	for {
		select {
		case <-n.stopCh:
			return
		case <-n.clk.After(tick):
		}
		n.mu.Lock()
		state := n.state
		sinceContact := n.clk.Since(n.lastContact)
		n.mu.Unlock()
		// Leaders heartbeat through their replicators; followers and
		// candidates watch for election timeout.
		switch {
		case state == Leader:
			failures = 0
		case sinceContact >= timeout:
			if n.runElection() {
				failures = 0
			} else {
				failures++
			}
			timeout = n.electionTimeout(failures)
		case sinceContact < n.cfg.ElectionTimeoutMin:
			// Fresh leader contact: the cluster is healthy, so the next
			// election (whenever it comes) starts from the base range.
			failures = 0
		}
	}
}

// runElection campaigns for leadership, reporting whether it won.
func (n *Node) runElection() bool {
	n.mu.Lock()
	// A rejoining node campaigns only after catching up: its empty log
	// cannot win, and the term inflation would depose a healthy leader.
	if n.voteHeld {
		n.lastContact = n.clk.Now()
		n.mu.Unlock()
		return true // not a split vote; no backoff
	}
	n.state = Candidate
	n.term++
	term := n.term
	n.votedFor = n.cfg.ID
	n.lastContact = n.clk.Now()
	lastIdx := uint64(len(n.log))
	var lastTerm uint64
	if lastIdx > 0 {
		lastTerm = n.log[lastIdx-1].Term
	}
	n.mu.Unlock()

	req := proto.VoteRequest{
		Term: term, Candidate: n.cfg.ID,
		LastLogIndex: lastIdx, LastLogTerm: lastTerm,
	}
	payload := req.Marshal()
	votes := 1 // self-vote
	var votesMu sync.Mutex
	var wg sync.WaitGroup
	for _, peer := range n.cfg.Peers {
		if peer == n.cfg.ID {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ElectionTimeoutMax)
			defer cancel()
			respB, err := n.cfg.Transport.Call(ctx, peer, proto.MethodRequestVote, payload)
			if err != nil {
				return
			}
			resp, err := proto.UnmarshalVoteResponse(respB)
			if err != nil {
				return
			}
			if resp.Term > term {
				n.observeTerm(resp.Term)
				return
			}
			if resp.Granted {
				votesMu.Lock()
				votes++
				votesMu.Unlock()
			}
		}(peer)
	}
	wg.Wait()

	n.mu.Lock()
	if n.state != Candidate || n.term != term {
		n.mu.Unlock()
		return false
	}
	if votes*2 > len(n.cfg.Peers) {
		n.becomeLeaderLocked(term)
		n.mu.Unlock()
		n.sendNotify(true, term)
		return true
	}
	n.mu.Unlock()
	return false
}

// becomeLeaderLocked transitions to Leader: it initializes replication
// bookkeeping, appends a no-op entry (committing it commits every
// uncommitted entry from earlier terms — Raft only counts quorums for
// current-term entries), and launches one replicator per peer. The
// replicators' initial pass doubles as the victory heartbeat.
func (n *Node) becomeLeaderLocked(term uint64) {
	n.state = Leader
	n.leader = n.cfg.ID
	n.next = make(map[string]uint64, len(n.cfg.Peers))
	n.match = make(map[string]uint64, len(n.cfg.Peers))
	n.log = append(n.log, proto.LogEntry{Term: term})
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			n.next[p] = uint64(len(n.log))
		}
	}
	if len(n.cfg.Peers) <= 1 {
		n.advanceCommitLocked(uint64(len(n.log)))
	}
	n.replStop = make(chan struct{})
	n.replNotify = make(map[string]chan struct{}, len(n.cfg.Peers))
	for _, p := range n.cfg.Peers {
		if p == n.cfg.ID {
			continue
		}
		ch := make(chan struct{}, 1)
		ch <- struct{}{} // replicate (at least a heartbeat) immediately
		n.replNotify[p] = ch
		n.wg.Add(1)
		go n.replicate(p, ch, n.replStop)
	}
}

// stopReplicatorsLocked retires the current term's replicators (no-op if
// not leading).
func (n *Node) stopReplicatorsLocked() {
	if n.replStop != nil {
		close(n.replStop)
		n.replStop = nil
		n.replNotify = nil
	}
}

func (n *Node) signalReplicatorsLocked() {
	for _, ch := range n.replNotify {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// replicate is one peer's replication loop while this node leads: it ships
// AppendEntries whenever proposals arrive (the group-committed fast path)
// and at every heartbeat interval otherwise (the liveness path), staying
// in a tight loop while the peer is behind so catch-up is pipelined.
func (n *Node) replicate(peer string, notify chan struct{}, stop chan struct{}) {
	defer n.wg.Done()
	for {
		select {
		case <-stop:
			return
		case <-n.stopCh:
			return
		case <-notify:
		case <-n.clk.After(n.cfg.HeartbeatInterval):
		}
		for n.appendOnce(peer) {
			select {
			case <-stop:
				return
			case <-n.stopCh:
				return
			default:
			}
		}
	}
}

// appendOnce sends one AppendEntries to peer, reporting whether the
// replicator should immediately send another (the peer is still behind, or
// the anchor moved after a rejection). Transport errors return false; the
// next heartbeat retries.
func (n *Node) appendOnce(peer string) bool {
	n.mu.Lock()
	if n.state != Leader {
		n.mu.Unlock()
		return false
	}
	term := n.term
	next := n.next[peer]
	if next == 0 {
		next = 1
	}
	prevIdx := next - 1
	var prevTerm uint64
	if prevIdx > 0 {
		prevTerm = n.log[prevIdx-1].Term
	}
	end := uint64(len(n.log))
	if cap := next - 1 + uint64(n.cfg.MaxAppendBatch); end > cap {
		end = cap
	}
	entries := make([]proto.LogEntry, end-(next-1))
	copy(entries, n.log[next-1:end])
	req := proto.AppendEntriesRequest{
		Term: term, Leader: n.cfg.ID,
		PrevIndex: prevIdx, PrevTerm: prevTerm,
		CommitIndex: n.commitIndex,
		Entries:     entries,
	}
	n.mu.Unlock()

	timeout := 4 * n.cfg.HeartbeatInterval
	if floor := 250 * time.Millisecond; timeout < floor {
		timeout = floor
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	respB, err := n.cfg.Transport.Call(ctx, peer, proto.MethodAppendEntries, req.Marshal())
	cancel()
	if err != nil {
		return false
	}
	resp, err := proto.UnmarshalAppendEntriesResponse(respB)
	if err != nil {
		return false
	}
	if resp.Term > term {
		n.observeTerm(resp.Term)
		return false
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state != Leader || n.term != term {
		return false
	}
	if resp.Success {
		m := prevIdx + uint64(len(entries))
		if m > n.match[peer] {
			n.match[peer] = m
		}
		if m+1 > n.next[peer] {
			n.next[peer] = m + 1
		}
		if len(entries) > 0 {
			n.statRounds.Add(1)
			n.statEntries.Add(uint64(len(entries)))
		}
		n.maybeCommitLocked()
		return uint64(len(n.log)) >= n.next[peer]
	}
	// Rejected: re-anchor at the follower's hint (its log length), never
	// forward of the current probe.
	reanchor := resp.MatchIndex + 1
	if reanchor > prevIdx {
		reanchor = prevIdx
	}
	if reanchor < 1 {
		reanchor = 1
	}
	n.next[peer] = reanchor
	return true
}

// maybeCommitLocked advances commitIndex to the highest index replicated
// on a quorum, counting only current-term entries (Raft's commit rule).
func (n *Node) maybeCommitLocked() {
	quorum := len(n.cfg.Peers)/2 + 1
	matches := make([]uint64, 0, len(n.cfg.Peers))
	matches = append(matches, uint64(len(n.log))) // self
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			matches = append(matches, n.match[p])
		}
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] > matches[j] })
	candidate := matches[quorum-1]
	if candidate > n.commitIndex && candidate > 0 && n.log[candidate-1].Term == n.term {
		n.advanceCommitLocked(candidate)
		// Piggyback the new commit index on the next round promptly.
		n.signalReplicatorsLocked()
	}
}

func (n *Node) observeTerm(term uint64) {
	n.mu.Lock()
	if term <= n.term {
		n.mu.Unlock()
		return
	}
	wasLeader := n.state == Leader
	oldTerm := n.term
	n.term = term
	n.state = Follower
	n.votedFor = ""
	n.stopReplicatorsLocked()
	n.wakeWaitersLocked()
	n.mu.Unlock()
	if wasLeader {
		n.sendNotify(false, oldTerm)
	}
}

func (n *Node) onRequestVote(req *proto.VoteRequest) proto.VoteResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	if req.Term < n.term {
		return proto.VoteResponse{Term: n.term, Granted: false}
	}
	if req.Term > n.term {
		if n.state == Leader {
			defer n.sendNotify(false, n.term)
		}
		n.term = req.Term
		n.state = Follower
		n.votedFor = ""
		n.stopReplicatorsLocked()
		n.wakeWaitersLocked()
	}
	// A rejoining node has forgotten its log and its vote; until it
	// catches up to a leader's commit index it must not help elect
	// anyone (its empty log would approve any candidate, including one
	// missing committed entries).
	if n.voteHeld {
		return proto.VoteResponse{Term: n.term, Granted: false}
	}
	// Election restriction: refuse candidates whose log is behind ours —
	// a leader must already hold every committed entry.
	lastIdx := uint64(len(n.log))
	var lastTerm uint64
	if lastIdx > 0 {
		lastTerm = n.log[lastIdx-1].Term
	}
	upToDate := req.LastLogTerm > lastTerm ||
		(req.LastLogTerm == lastTerm && req.LastLogIndex >= lastIdx)
	if !upToDate {
		return proto.VoteResponse{Term: n.term, Granted: false}
	}
	if n.votedFor == "" || n.votedFor == req.Candidate {
		n.votedFor = req.Candidate
		n.lastContact = n.clk.Now()
		return proto.VoteResponse{Term: n.term, Granted: true}
	}
	return proto.VoteResponse{Term: n.term, Granted: false}
}

func (n *Node) onAppendEntries(req *proto.AppendEntriesRequest) proto.AppendEntriesResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	if req.Term < n.term {
		return proto.AppendEntriesResponse{Term: n.term, Success: false, MatchIndex: uint64(len(n.log))}
	}
	if req.Term > n.term || n.state != Follower {
		if n.state == Leader && req.Leader != n.cfg.ID {
			defer n.sendNotify(false, n.term)
		}
		n.stopReplicatorsLocked()
		n.wakeWaitersLocked()
		if req.Term > n.term {
			n.votedFor = ""
		}
		n.term = req.Term
		n.state = Follower
	}
	n.leader = req.Leader
	n.lastContact = n.clk.Now()

	// Log-matching check: the batch anchors at PrevIndex/PrevTerm.
	if req.PrevIndex > uint64(len(n.log)) ||
		(req.PrevIndex > 0 && n.log[req.PrevIndex-1].Term != req.PrevTerm) {
		hint := uint64(len(n.log))
		if req.PrevIndex > 0 && req.PrevIndex-1 < hint {
			hint = req.PrevIndex - 1
		}
		return proto.AppendEntriesResponse{Term: n.term, Success: false, MatchIndex: hint}
	}
	// Append, truncating any conflicting suffix from a deposed leader.
	idx := req.PrevIndex
	for i := range req.Entries {
		idx++
		if idx <= uint64(len(n.log)) {
			if n.log[idx-1].Term == req.Entries[i].Term {
				continue // already have it (retransmission)
			}
			if idx <= n.commitIndex {
				// A conflict below the commit index is impossible in a
				// correct cluster; refuse rather than corrupt.
				return proto.AppendEntriesResponse{Term: n.term, Success: false, MatchIndex: n.commitIndex}
			}
			n.log = n.log[:idx-1]
		}
		n.log = append(n.log, req.Entries[i])
	}
	matched := req.PrevIndex + uint64(len(req.Entries))
	if c := req.CommitIndex; c > n.commitIndex {
		if c > matched {
			c = matched
		}
		n.advanceCommitLocked(c)
	}
	// A rejoining node regains its vote once its log covers everything
	// the leader reports committed — from here on it behaves like any
	// follower that was merely slow.
	if n.voteHeld && matched >= req.CommitIndex {
		n.voteHeld = false
	}
	return proto.AppendEntriesResponse{Term: n.term, Success: true, MatchIndex: matched}
}
