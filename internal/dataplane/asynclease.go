package dataplane

import (
	"fmt"
	"sync/atomic"

	"dirigent/internal/core"
	"dirigent/internal/proto"
)

// Lease failover for the durable async queue (lessee side).
//
// When the control plane's health sweep prunes a replica, it leases that
// replica's durable queue hashes to survivors (proto.AsyncLease). A
// lessee drains the dead owner's records through its ordinary dispatch
// loops, with every settlement fenced by the lease epoch: the store
// rejects a settle whose epoch is older than the owner's fence
// (store.HDelFenced), and fences only ever rise (store.HBumpU64).
//
// The fence is what makes revival safe. A revived owner re-registers and
// is assigned a fresh, strictly higher epoch; adopting it bumps the
// owner's fence past every outstanding lease, so a lessee that keeps
// draining can no longer delete records (its settles return ErrFenced
// and it abandons the lease), and the owner's own recovery re-runs only
// records no lessee managed to settle. Symmetrically, a pruned-but-alive
// "zombie" owner whose records were leased away settles at its stale
// epoch, is fenced, and parks the settle until it adopts its revival
// epoch — it never re-dispatches the task, and the record is deleted
// exactly once. What at-least-once still permits is a task executing on
// both sides of a lease transition before either settles; epochs bound
// the damage to duplicate execution (never duplicate settlement, never a
// stranded record), which is the paper's §3.4.2 contract.

// asyncFenceHash is the store hash holding one settlement fence per
// owner replica (field = owner ID). It is deliberately not an async
// queue hash: recovery and lease drains never scan it.
const asyncFenceHash = "async-lease-fence"

func asyncFenceField(owner core.DataPlaneID) string {
	return fmt.Sprintf("%d", owner)
}

// heldLease is one lease this replica holds on a dead owner's records.
type heldLease struct {
	owner   core.DataPlaneID
	epoch   uint64
	hashes  []string
	revoked atomic.Bool
}

type parkedSettle struct {
	hash, key string
}

// adoptEpoch raises this replica's queue epoch to e (epochs only move
// forward; stale acks are ignored). On a raise with a durable store, the
// replica bumps its own settlement fence — out-fencing any lessee still
// draining its records — and retries settles parked while it was fenced.
func (dp *DataPlane) adoptEpoch(e uint64) {
	for {
		cur := dp.queueEpoch.Load()
		if e <= cur {
			return
		}
		if dp.queueEpoch.CompareAndSwap(cur, e) {
			break
		}
	}
	if st := dp.cfg.AsyncStore; st != nil {
		if err := st.HBumpU64(asyncFenceHash, asyncFenceField(dp.cfg.ID), e); err != nil {
			dp.mAsync.fenceErrors.Inc()
			return
		}
		dp.retryParkedSettles()
	}
}

// QueueEpoch returns the replica's current async queue epoch.
func (dp *DataPlane) QueueEpoch() uint64 { return dp.queueEpoch.Load() }

// adoptEpochAck parses a CP reply carrying a DataPlaneEpochAck (empty
// replies mean "no epoch assigned" and are ignored).
func (dp *DataPlane) adoptEpochAck(resp []byte) {
	if len(resp) == 0 {
		return
	}
	if ack, err := proto.UnmarshalDataPlaneEpochAck(resp); err == nil && ack.Epoch > 0 {
		dp.adoptEpoch(ack.Epoch)
	}
}

// parkSettle records a fence-rejected own-record settle for retry after
// the replica adopts a newer epoch. The task already executed here, so
// it must not be re-dispatched; the record just cannot be deleted until
// this replica out-fences the lease that was granted while its
// heartbeats were delayed.
func (dp *DataPlane) parkSettle(hash, key string) {
	dp.parkMu.Lock()
	dp.parked = append(dp.parked, parkedSettle{hash: hash, key: key})
	dp.parkMu.Unlock()
	dp.mAsync.settleParked.Inc()
}

// retryParkedSettles re-attempts parked settles at the newly adopted
// epoch (settleAsync re-reads it); still-fenced ones re-park.
func (dp *DataPlane) retryParkedSettles() {
	dp.parkMu.Lock()
	parked := dp.parked
	dp.parked = nil
	dp.parkMu.Unlock()
	for _, p := range parked {
		t := asyncTask{storeHash: p.hash, storeKey: p.key}
		dp.settleAsync(&t)
	}
}

// leasedKeyID dedupes leased records across re-scans of the same hashes
// (a re-granted lease rescans; records already queued must not dispatch
// twice from this replica).
func leasedKeyID(hash, key string) string { return hash + "\x00" + key }

func (dp *DataPlane) markLeasedKey(hash, key string) bool {
	id := leasedKeyID(hash, key)
	dp.leaseMu.Lock()
	defer dp.leaseMu.Unlock()
	if dp.leasedKeys[id] {
		return false
	}
	dp.leasedKeys[id] = true
	return true
}

func (dp *DataPlane) forgetLeasedKey(hash, key string) {
	dp.leaseMu.Lock()
	delete(dp.leasedKeys, leasedKeyID(hash, key))
	dp.leaseMu.Unlock()
}

// abandonLease drops a held lease no newer than epoch: the store fenced
// one of its settles, so a higher epoch (a revival or a re-lease) owns
// the records now.
func (dp *DataPlane) abandonLease(owner core.DataPlaneID, epoch uint64) {
	dp.leaseMu.Lock()
	if l := dp.leases[owner]; l != nil && l.epoch <= epoch {
		l.revoked.Store(true)
		delete(dp.leases, owner)
	}
	dp.leaseMu.Unlock()
}

// leaseCheck validates a queued leased task at dispatch time. A task
// granted at an epoch the lease has since left (revoked, abandoned, or
// re-granted lower) is dropped without executing — its record stays
// durable for whoever owns the epoch now. A re-grant to this same
// replica at a higher epoch upgrades the task in place, so tasks queued
// under the old grant still dispatch (and settle at the new epoch)
// instead of stranding until another scan.
func (dp *DataPlane) leaseCheck(t *asyncTask) bool {
	dp.leaseMu.Lock()
	defer dp.leaseMu.Unlock()
	l := dp.leases[t.leaseOwner]
	if l == nil || l.revoked.Load() || l.epoch < t.leaseEpoch {
		return false
	}
	t.leaseEpoch = l.epoch
	return true
}

// currentLeaseEpoch reports the epoch of the lease this replica holds on
// owner's records, if any.
func (dp *DataPlane) currentLeaseEpoch(owner core.DataPlaneID) (uint64, bool) {
	dp.leaseMu.Lock()
	defer dp.leaseMu.Unlock()
	if l := dp.leases[owner]; l != nil && !l.revoked.Load() {
		return l.epoch, true
	}
	return 0, false
}

// HeldLeases reports how many owners' records this replica is currently
// leasing.
func (dp *DataPlane) HeldLeases() int {
	dp.leaseMu.Lock()
	defer dp.leaseMu.Unlock()
	return len(dp.leases)
}

// handleAsyncLeaseGrant installs a lease on a dead owner's hashes and
// starts draining them. Grants are idempotent per epoch and replace any
// older lease on the same owner. A replica without a durable store (or
// with a private one — nothing to read the dead owner's records from)
// acknowledges but drains nothing, preserving the seed's wait-for-
// restart behavior for that deployment shape.
func (dp *DataPlane) handleAsyncLeaseGrant(payload []byte) ([]byte, error) {
	g, err := proto.UnmarshalAsyncLease(payload)
	if err != nil {
		return nil, err
	}
	if dp.cfg.AsyncStore == nil {
		dp.mAsync.leaseNoStore.Inc()
		return nil, nil
	}
	if dp.stopped.Load() {
		return nil, nil
	}
	dp.leaseMu.Lock()
	if cur := dp.leases[g.Owner]; cur != nil && cur.epoch >= g.Epoch {
		dp.leaseMu.Unlock()
		return nil, nil // duplicate or stale grant
	}
	l := &heldLease{owner: g.Owner, epoch: g.Epoch, hashes: g.Hashes}
	dp.leases[g.Owner] = l
	dp.leaseMu.Unlock()
	// Raise the owner's fence to the lease epoch before draining: from
	// here on, neither the zombie owner nor an older lessee can settle
	// (and thereby mask) a record this lease is about to own.
	if err := dp.cfg.AsyncStore.HBumpU64(asyncFenceHash, asyncFenceField(g.Owner), g.Epoch); err != nil {
		dp.abandonLease(g.Owner, g.Epoch)
		return nil, err
	}
	dp.mAsync.leasesGranted.Inc()
	dp.wg.Add(1)
	go dp.drainLease(l)
	return nil, nil
}

// handleAsyncLeaseRevoke retracts leases older than the owner's revival
// epoch. Tasks already queued under the lease are dropped at dispatch by
// leaseCheck; their records stay durable for the revived owner.
func (dp *DataPlane) handleAsyncLeaseRevoke(payload []byte) ([]byte, error) {
	r, err := proto.UnmarshalAsyncLeaseRevoke(payload)
	if err != nil {
		return nil, err
	}
	dp.leaseMu.Lock()
	if l := dp.leases[r.Owner]; l != nil && l.epoch < r.Epoch {
		l.revoked.Store(true)
		delete(dp.leases, r.Owner)
		dp.mAsync.leasesRevoked.Inc()
	}
	dp.leaseMu.Unlock()
	return nil, nil
}

// drainLease scans the leased hashes for the dead owner's records and
// feeds them to the ordinary dispatch loops with backpressure (blocking
// admit — leased tasks were acknowledged by the dead owner and must
// reach a dispatch loop, not overflow). Dispatch itself re-validates the
// lease, so a revocation mid-drain stops execution even for tasks
// already queued.
func (dp *DataPlane) drainLease(l *heldLease) {
	defer dp.wg.Done()
	st := dp.cfg.AsyncStore
	for _, hash := range l.hashes {
		for key, raw := range st.HGetAll(hash) {
			if l.revoked.Load() || dp.stopped.Load() {
				return
			}
			owner, ok := core.AsyncTaskOwner(key)
			if !ok || owner != l.owner {
				continue
			}
			if !dp.markLeasedKey(hash, key) {
				continue // already queued by an earlier grant
			}
			task, err := unmarshalAsyncTask(raw)
			if err != nil {
				st.HDel(hash, key)
				dp.mAsync.recoverCorrupt.Inc()
				dp.forgetLeasedKey(hash, key)
				continue
			}
			task.storeKey = key
			task.storeHash = hash
			task.attempt = 0
			task.leased = true
			task.leaseOwner = l.owner
			task.leaseEpoch = l.epoch
			if !dp.asyncShardFor(task.function).admitBlocking(task) {
				dp.forgetLeasedKey(hash, key)
				return
			}
			dp.mAsync.leaseDrained.Inc()
		}
	}
}
