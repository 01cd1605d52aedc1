package controlplane

// Raft-log replication mode for the control-plane tier. The legacy HA
// regime (election-only Raft over a shared store.Replicated) still works:
// it is selected by Peers > 1 with Config.DB set and Config.LocalStore
// nil. The replicated-log regime is selected by Peers > 1 with
// Config.LocalStore set: every durable write the control plane makes is
// marshaled as a store.Op and proposed to the Raft log; committed batches
// are applied to each replica's local store, so a follower promoted to
// leader recovers from its own applied state — no cold store replay and no
// shared-store single point of failure. Read-only RPCs can then be served
// by followers from that same applied state behind a leader-lease check
// (bounded staleness), which is the perf headline: the leader's RPC load
// drops to writes while front-end membership polls and dirigentctl reads
// spread across the tier.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/proto"
	"dirigent/internal/raft"
	"dirigent/internal/store"
)

// fieldDPLive (hashMeta field) is the leader-published live data-plane
// membership list (a marshaled proto.DataPlaneList). Liveness is leader
// state — followers don't see heartbeats — so the leader replicates the
// live set whenever membership changes, letting followers answer
// MethodListDataPlanes from their applied store.
const fieldDPLive = "dp-live"

// proposeTimeout bounds how long a durable write waits for quorum
// replication before surfacing an error to the caller (who retries via
// cpclient failover).
const proposeTimeout = 5 * time.Second

// replLog reports whether this replica runs the replicated-log regime.
func (cp *ControlPlane) replLog() bool {
	return cp.raftNode != nil && cp.cfg.LocalStore != nil
}

// notLeaderErr builds the rejection a non-leader replica returns for
// leader-only RPCs, embedding a redirect hint when the leader is known so
// cpclient can jump straight there instead of probing replicas in order.
func (cp *ControlPlane) notLeaderErr() error {
	if cp.raftNode != nil {
		if l := cp.raftNode.Leader(); l != "" && l != cp.cfg.Addr {
			return fmt.Errorf("%s; leader=%s", cpclient.ErrNotLeaderText, l)
		}
	}
	return errors.New(cpclient.ErrNotLeaderText)
}

// applyReplicated is the Raft apply callback: it decodes a committed batch
// of store.Op entries and applies them to the local store in one lock
// acquisition (batched follower apply). Empty entries are Raft-internal
// barriers/no-ops.
func (cp *ControlPlane) applyReplicated(batch [][]byte) {
	ops := make([]store.Op, 0, len(batch))
	for _, b := range batch {
		if len(b) == 0 {
			continue
		}
		op, err := store.UnmarshalOp(b)
		if err != nil {
			continue // a corrupt entry would have failed quorum marshaling; skip defensively
		}
		ops = append(ops, op)
	}
	_ = cp.cfg.LocalStore.ApplyBatch(ops)
}

// replicatedDB adapts the Raft log to the DB interface: writes are
// proposed to the log and return once committed at quorum and applied
// locally (read-your-writes); reads come straight from the local applied
// store.
type replicatedDB struct {
	cp *ControlPlane
}

func (r *replicatedDB) HSet(hash, field string, value []byte) error {
	op := store.Op{Kind: store.OpHSet, Key: hash, Field: field, Value: value}
	return r.propose(&op)
}

func (r *replicatedDB) HDel(hash, field string) error {
	op := store.Op{Kind: store.OpHDel, Key: hash, Field: field}
	return r.propose(&op)
}

func (r *replicatedDB) HGetAll(hash string) map[string][]byte {
	return r.cp.cfg.LocalStore.HGetAll(hash)
}

func (r *replicatedDB) propose(op *store.Op) error {
	ctx, cancel := context.WithTimeout(context.Background(), proposeTimeout)
	defer cancel()
	err := r.cp.raftNode.Propose(ctx, op.Marshal())
	if errors.Is(err, raft.ErrNotLeader) || errors.Is(err, raft.ErrStopped) {
		// Stopped under a write in flight: the client tries the next replica.
		return r.cp.notLeaderErr()
	}
	return err
}

// barrierApplied blocks a freshly elected leader until its applied store
// reflects every write any previous leader acknowledged (an empty entry
// committed in the new term), so recovery never reads stale state —
// without it, nextEpoch could re-mint an epoch the old leader already
// used.
func (cp *ControlPlane) barrierApplied() {
	if !cp.replLog() {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), proposeTimeout)
	defer cancel()
	_ = cp.raftNode.Barrier(ctx)
}

// publishDataPlanes replicates the live data-plane membership list so
// followers can serve MethodListDataPlanes. Called (via
// refreshDataPlaneGauge) on every membership or liveness change — rare
// events, so the quorum round trip is off every hot path.
func (cp *ControlPlane) publishDataPlanes() {
	if !cp.replLog() || !cp.cfg.FollowerReads || !cp.IsLeader() {
		return
	}
	b, _ := cp.handleListDataPlanes()
	_ = cp.cfg.DB.HSet(hashMeta, fieldDPLive, b)
}

// tryFollowerRead serves a read-only RPC from this replica's applied
// store, reporting handled=false when the method is not follower-servable
// or this replica may not vouch for its state (follower reads disabled,
// lease expired, or no published data yet) — the caller then rejects with
// the NotLeader redirect.
func (cp *ControlPlane) tryFollowerRead(method string) (resp []byte, err error, handled bool) {
	if !cp.replLog() || !cp.cfg.FollowerReads || !cp.raftNode.ReadAllowed() {
		return nil, nil, false
	}
	switch method {
	case proto.MethodListDataPlanes:
		b, ok := cp.cfg.LocalStore.HGet(hashMeta, fieldDPLive)
		if !ok {
			return nil, nil, false // leader hasn't published membership yet
		}
		cp.cReadFollower.Inc()
		return b, nil, true
	case proto.MethodListFunctions:
		var list proto.FunctionList
		for _, b := range cp.cfg.LocalStore.HGetAll(hashFunctions) {
			if f, err := core.UnmarshalFunction(b); err == nil {
				list.Functions = append(list.Functions, *f)
			}
		}
		sort.Slice(list.Functions, func(i, j int) bool {
			return list.Functions[i].Name < list.Functions[j].Name
		})
		cp.cReadFollower.Inc()
		return list.Marshal(), nil, true
	default:
		return nil, nil, false
	}
}

// ReadCounts reports how many read RPCs this replica served as leader vs
// as follower — the offload measurement experiments assert on.
func (cp *ControlPlane) ReadCounts() (leaderServed, followerServed int64) {
	return cp.cReadLeader.Value(), cp.cReadFollower.Value()
}

// ReplStats exposes the Raft replication batch telemetry (AppendEntries
// rounds and entries shipped); entries/rounds is the mean wire batch size.
func (cp *ControlPlane) ReplStats() (rounds, entries uint64) {
	if cp.raftNode == nil {
		return 0, 0
	}
	return cp.raftNode.ReplStats()
}

// RaftLeader returns the address of the last leader this replica heard
// from ("" if unknown or single-node).
func (cp *ControlPlane) RaftLeader() string {
	if cp.raftNode == nil {
		return cp.cfg.Addr
	}
	return cp.raftNode.Leader()
}
