package dataplane

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// seedOwnedTasks persists n records for function fn owned by owner into
// hash, as if that replica had accepted them and crashed.
func seedOwnedTasks(t *testing.T, db *store.Store, hash string, owner core.DataPlaneID, fn string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := core.AsyncTaskKey(owner, uint64(i+1))
		task := asyncTask{function: fn, payload: []byte{byte(i)}}
		if err := db.HSet(hash, key, marshalAsyncTask(task)); err != nil {
			t.Fatal(err)
		}
	}
}

// coResident returns a function name that asyncShardFor maps to fn's
// shard, for tests that need two functions competing inside one shard.
func coResident(t *testing.T, dp *DataPlane, fn, prefix string) string {
	t.Helper()
	want := dp.asyncShardFor(fn)
	for i := 0; i < 1<<16; i++ {
		if name := fmt.Sprintf("%s-%d", prefix, i); dp.asyncShardFor(name) == want {
			return name
		}
	}
	t.Fatalf("no %s-<i> shares %s's shard", prefix, fn)
	return ""
}

func grantLease(t *testing.T, tr *transport.InProc, dpAddr string, owner core.DataPlaneID, epoch uint64, hashes []string) {
	t.Helper()
	g := proto.AsyncLease{Owner: owner, Epoch: epoch, Hashes: hashes}
	if _, err := tr.Call(context.Background(), dpAddr, proto.MethodAsyncLeaseGrant, g.Marshal()); err != nil {
		t.Fatal(err)
	}
}

func revokeLease(t *testing.T, tr *transport.InProc, dpAddr string, owner core.DataPlaneID, epoch uint64) {
	t.Helper()
	r := proto.AsyncLeaseRevoke{Owner: owner, Epoch: epoch}
	if _, err := tr.Call(context.Background(), dpAddr, proto.MethodAsyncLeaseRevoke, r.Marshal()); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncLeaseDrainsDeadOwnersRecords: a granted lease drains another
// replica's records through the ordinary dispatch loops and settles them
// under the lease epoch, emptying the shared store.
func TestAsyncLeaseDrainsDeadOwnersRecords(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	db := store.NewMemory()
	seedOwnedTasks(t, db, asyncQueueHash, 2, "f", 5)

	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   2 * time.Second,
		AsyncRetries:   10,
		AsyncStore:     db,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	pushFunction(t, tr, dp.Addr(), "f")
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")

	// Replica 1 recovers nothing: the records belong to replica 2.
	if got := dp.metrics.Counter("async_recovered").Value(); got != 0 {
		t.Fatalf("recovered foreign records: %d", got)
	}
	grantLease(t, tr, dp.Addr(), 2, 1, []string{asyncQueueHash})
	if dp.HeldLeases() != 1 {
		t.Fatalf("HeldLeases = %d, want 1", dp.HeldLeases())
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if db.HLen(asyncQueueHash) == 0 && dp.metrics.Counter("async_completed").Value() >= 5 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("lease not drained: backlog=%d drained=%d completed=%d",
		db.HLen(asyncQueueHash),
		dp.metrics.Counter("async_lease_drained").Value(),
		dp.metrics.Counter("async_completed").Value())
}

// TestAsyncLeaseRevivalDropsQueuedTasks: the owner revives (fence bumped
// to its revival epoch, lease revoked) while leased tasks sit queued —
// dispatch must drop them without executing, leaving every record
// durable for the owner.
func TestAsyncLeaseRevivalDropsQueuedTasks(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	db := store.NewMemory()
	seedOwnedTasks(t, db, asyncQueueHash, 2, "f", 4)

	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   30 * time.Second, // dispatch blocks: no endpoints
		AsyncRetries:   10,
		AsyncStore:     db,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	pushFunction(t, tr, dp.Addr(), "f") // known function, no endpoints

	grantLease(t, tr, dp.Addr(), 2, 1, []string{asyncQueueHash})
	waitCounter(t, dp, "async_lease_drained", 4)
	// Wait for the dispatch loop to pop the first leased task (it parks
	// in the cold-start queue: no endpoints yet), so exactly one task is
	// in flight and three are queued when the revival lands.
	sh := dp.asyncShardFor("f")
	deadline := time.Now().Add(5 * time.Second)
	for sh.pending() != 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sh.pending(); got != 3 {
		t.Fatalf("queued leased tasks = %d, want 3", got)
	}

	// Owner revival: the CP mints epoch 2; the owner adopts it (bumping
	// its fence) and the CP revokes the lease.
	if err := db.HBumpU64(asyncFenceHash, asyncFenceField(2), 2); err != nil {
		t.Fatal(err)
	}
	revokeLease(t, tr, dp.Addr(), 2, 2)
	if dp.HeldLeases() != 0 {
		t.Fatalf("lease survived revoke")
	}
	// Unblock dispatch. The three queued tasks must be dropped at the
	// lease check without executing; the in-flight one may execute
	// (at-least-once) but its stale-epoch settle is fenced. Either way
	// every record stays durable for the revived owner.
	startSandboxHost(t, tr, "w1:9000", 0)
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")
	waitCounter(t, dp, "async_lease_dropped", 3)
	waitCounter(t, dp, "async_settle_fenced", 1)
	if got := db.HLen(asyncQueueHash); got != 4 {
		t.Fatalf("records deleted despite revocation: %d left, want 4", got)
	}
}

// TestAsyncLeaseSettleAfterRevokeFenced: a leased task already executing
// when the owner revives settles at the stale lease epoch; the store
// fence must reject the delete and the lessee must abandon the lease.
func TestAsyncLeaseSettleAfterRevokeFenced(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	db := store.NewMemory()
	key := core.AsyncTaskKey(2, 1)
	db.HSet(asyncQueueHash, key, marshalAsyncTask(asyncTask{function: "f"}))

	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   time.Second,
		AsyncStore:     db,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()

	grantLease(t, tr, dp.Addr(), 2, 1, nil) // lease installed, nothing to drain
	// Revival epoch 2 out-fences the lease before the in-flight task's
	// settle lands.
	if err := db.HBumpU64(asyncFenceHash, asyncFenceField(2), 2); err != nil {
		t.Fatal(err)
	}
	task := asyncTask{
		function: "f", storeHash: asyncQueueHash, storeKey: key,
		leased: true, leaseOwner: 2, leaseEpoch: 1,
	}
	dp.settleAsync(&task)
	if _, ok := db.HGet(asyncQueueHash, key); !ok {
		t.Fatal("stale-epoch settle deleted the record")
	}
	if got := dp.metrics.Counter("async_settle_fenced").Value(); got != 1 {
		t.Fatalf("async_settle_fenced = %d, want 1", got)
	}
	if dp.HeldLeases() != 0 {
		t.Fatal("fenced settle did not abandon the lease")
	}
}

// TestAsyncOwnerParksFencedSettleUntilRevivalEpoch: a zombie owner whose
// records were leased away settles at its stale epoch — the settle parks
// (no delete, no re-execution) and lands once the owner adopts its
// revival epoch.
func TestAsyncOwnerParksFencedSettleUntilRevivalEpoch(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	db := store.NewMemory()
	key := core.AsyncTaskKey(1, 1)
	db.HSet(asyncQueueHash, key, marshalAsyncTask(asyncTask{function: "f"}))

	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   time.Second,
		AsyncStore:     db,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	waitCounter(t, dp, "async_recovered", 1)

	// A lease on this replica's own records was granted at epoch 5 while
	// its heartbeats were delayed.
	if err := db.HBumpU64(asyncFenceHash, asyncFenceField(1), 5); err != nil {
		t.Fatal(err)
	}
	task := asyncTask{function: "f", storeHash: asyncQueueHash, storeKey: key}
	dp.settleAsync(&task)
	if _, ok := db.HGet(asyncQueueHash, key); !ok {
		t.Fatal("fenced own settle deleted the record")
	}
	if got := dp.metrics.Counter("async_settle_parked").Value(); got != 1 {
		t.Fatalf("async_settle_parked = %d, want 1", got)
	}
	// Revival: the CP assigns epoch 6; adopting it bumps the fence and
	// retries the parked settle.
	dp.adoptEpoch(6)
	if _, ok := db.HGet(asyncQueueHash, key); ok {
		t.Fatal("parked settle not retried after epoch adoption")
	}
	if got := db.HGetU64(asyncFenceHash, asyncFenceField(1)); got != 6 {
		t.Fatalf("own fence = %d, want 6", got)
	}
}

// TestAsyncQuotaRejectsClientAccepts: with AsyncFnQuota set, a function
// already holding quota queued tasks has further client accepts rejected
// (and their durable records settled), while other functions in the same
// shard still admit.
func TestAsyncQuotaRejectsClientAccepts(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	db := store.NewMemory()
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   30 * time.Second, // dispatch parks on the first task
		AsyncRetries:   1_000_000,
		AsyncStore:     db,
		AsyncFnQuota:   2,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	sh := dp.asyncShardFor("f")
	g := coResident(t, dp, "f", "g")
	pushFunction(t, tr, dp.Addr(), "f")
	pushFunction(t, tr, dp.Addr(), g)

	accept := func(fn string) error {
		req := proto.InvokeRequest{Function: fn, Async: true}
		_, err := tr.Call(context.Background(), dp.Addr(), proto.MethodInvoke, req.Marshal())
		return err
	}
	// First task is popped by the dispatch loop and parks in the
	// cold-start queue; wait for the pop so quota counts only queued
	// tasks deterministically.
	if err := accept("f"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sh.pending() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := accept("f"); err != nil {
		t.Fatal(err)
	}
	if err := accept("f"); err != nil {
		t.Fatal(err)
	}
	err := accept("f")
	if err == nil {
		t.Fatal("fourth accept admitted past the quota")
	}
	if got := dp.metrics.Counter("async_rejected").Value(); got != 1 {
		t.Fatalf("async_rejected = %d, want 1", got)
	}
	// The rejected task's durable record was settled: only the three
	// admitted records remain.
	if got := db.HLen(sh.hash); got != 3 {
		t.Fatalf("store holds %d records, want 3", got)
	}
	// Another function in the same shard is not throttled by f's quota.
	if err := accept(g); err != nil {
		t.Fatalf("co-resident function throttled: %v", err)
	}
}

// TestAsyncDRRFairDispatch: a hot function's burst must not head-of-line
// block a co-resident function — with DRR, the cold function's tasks
// dispatch after at most one quantum of the hot function's, not after
// the whole burst.
func TestAsyncDRRFairDispatch(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")

	var mu sync.Mutex
	var order []byte
	ln, err := tr.Listen("w1:9000", func(method string, payload []byte) ([]byte, error) {
		req, err := proto.UnmarshalInvokeSandboxRequest(payload)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		order = append(order, req.Payload[0])
		mu.Unlock()
		return req.Payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   30 * time.Second,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	sh := dp.asyncShardFor("hot")
	cold := coResident(t, dp, "hot", "cold") // both functions share the shard
	pushFunction(t, tr, dp.Addr(), "hot")
	pushFunction(t, tr, dp.Addr(), cold)

	accept := func(fn string, tag byte) {
		req := proto.InvokeRequest{Function: fn, Async: true, Payload: []byte{tag}}
		if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodInvoke, req.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	// Park the dispatch loop on one hot task (no endpoints yet), then
	// pile up the burst behind it so dispatch order is decided by DRR,
	// not by arrival timing.
	accept("hot", 'h')
	deadline := time.Now().Add(5 * time.Second)
	for sh.pending() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 39; i++ {
		accept("hot", 'h')
	}
	accept(cold, 'c')
	accept(cold, 'c')

	pushEndpoints(t, tr, dp.Addr(), "hot", []core.SandboxID{1}, "w1:9000")
	pushEndpoints(t, tr, dp.Addr(), cold, []core.SandboxID{2}, "w1:9000")
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if dp.metrics.Counter("async_completed").Value() >= 42 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) < 42 {
		t.Fatalf("completed %d of 42 tasks", len(order))
	}
	// The parked first task plus at most one quantum of hot tasks may
	// precede the cold pair; a FIFO queue would have put them at 41-42.
	for i, tag := range order {
		if tag == 'c' {
			if i > 1+asyncDRRQuantum+1 {
				t.Fatalf("first cold task dispatched at position %d (head-of-line blocked): %q", i+1, order)
			}
			return
		}
	}
	t.Fatalf("cold tasks never dispatched: %q", order)
}

// TestAsyncRecoverBacklogLargerThanShardDrains covers the
// recover-overflow fix: a crash backlog bigger than the shard buffer
// must drain completely via blocking admission instead of dropping the
// overflow on the floor until the next restart.
func TestAsyncRecoverBacklogLargerThanShardDrains(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	db := store.NewMemory()
	backlog := asyncShardCap + 500
	for i := 0; i < backlog; i++ {
		key := core.AsyncTaskKey(1, uint64(i+1))
		db.HSet(asyncQueueHash, key, marshalAsyncTask(asyncTask{function: "f", payload: []byte{byte(i)}}))
	}

	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   2 * time.Second,
		AsyncRetries:   10,
		AsyncStore:     db, // every task is f's: one shard, and the backlog exceeds its buffer
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	pushFunction(t, tr, dp.Addr(), "f")
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")

	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if db.HLen(asyncQueueHash) == 0 {
			if got := dp.metrics.Counter("async_recovered").Value(); got != int64(backlog) {
				t.Fatalf("recovered = %d, want %d", got, backlog)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("backlog stranded: %d records left, recovered=%d completed=%d",
		db.HLen(asyncQueueHash),
		dp.metrics.Counter("async_recovered").Value(),
		dp.metrics.Counter("async_completed").Value())
}

// TestConcurrentLeaseDrainAndAccepts races a lease drain (granted,
// revoked, re-granted at a higher epoch) against live client accepts on
// the same replica, then requires every record — leased and own — to
// settle. Runs under -race in CI.
func TestConcurrentLeaseDrainAndAccepts(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	db := store.NewMemory()
	seedOwnedTasks(t, db, asyncQueueHash, 2, "f", 200)

	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   2 * time.Second,
		AsyncRetries:   100,
		AsyncStore:     db,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	pushFunction(t, tr, dp.Addr(), "f")
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			req := proto.InvokeRequest{Function: "f", Async: true, Payload: []byte(fmt.Sprintf("live-%d", i))}
			if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodInvoke, req.Marshal()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		grantLease(t, tr, dp.Addr(), 2, 1, []string{asyncQueueHash})
		time.Sleep(time.Millisecond)
		revokeLease(t, tr, dp.Addr(), 2, 2)
		time.Sleep(time.Millisecond)
		// Re-lease at a higher epoch (the sweep re-issuing after the
		// aborted takeover); tasks dropped under the revoked lease are
		// re-drained here.
		grantLease(t, tr, dp.Addr(), 2, 3, []string{asyncQueueHash})
	}()
	wg.Wait()

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if AsyncBacklog(db) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("records stranded after concurrent lease churn: backlog=%d drained=%d dropped=%d completed=%d",
		AsyncBacklog(db),
		dp.metrics.Counter("async_lease_drained").Value(),
		dp.metrics.Counter("async_lease_dropped").Value(),
		dp.metrics.Counter("async_completed").Value())
}
