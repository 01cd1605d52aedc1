package dataplane

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// waitCounter polls for a metrics counter to reach want — recovery and
// lease drains run in background goroutines, so counters converge rather
// than being synchronous with Start.
func waitCounter(t *testing.T, dp *DataPlane, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if dp.metrics.Counter(name).Value() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counter %s = %d, want >= %d", name, dp.metrics.Counter(name).Value(), want)
}

func TestAsyncTaskMarshalRoundTrip(t *testing.T) {
	task := asyncTask{function: "f", payload: []byte{1, 2, 3}, attempt: 2}
	got, err := unmarshalAsyncTask(marshalAsyncTask(task))
	if err != nil {
		t.Fatal(err)
	}
	if got.function != task.function || !bytes.Equal(got.payload, task.payload) || got.attempt != task.attempt {
		t.Errorf("round trip: %+v", got)
	}
	if _, err := unmarshalAsyncTask([]byte{0xFF}); err == nil {
		t.Errorf("truncated task should fail to unmarshal")
	}
}

func TestAsyncPersistedUntilCompletion(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	db := store.NewMemory()
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: 10 * time.Millisecond,
		QueueTimeout:   2 * time.Second,
		AsyncStore:     db,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	pushFunction(t, tr, dp.Addr(), "f")
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")

	req := proto.InvokeRequest{Function: "f", Async: true, Payload: []byte("x")}
	if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodInvoke, req.Marshal()); err != nil {
		t.Fatal(err)
	}
	// The task must eventually complete and the durable record disappear.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if dp.metrics.Counter("async_completed").Value() >= 1 && dp.PendingAsync() == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("async task not completed+settled: completed=%d pending=%d",
		dp.metrics.Counter("async_completed").Value(), dp.PendingAsync())
}

func TestAsyncSurvivesDataPlaneRestart(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	db := store.NewMemory()

	// First incarnation: accept async invocations for a function with no
	// sandbox and no cold-start resolution (short queue timeout + many
	// retries keep them pending), then crash.
	dp1 := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: 10 * time.Millisecond,
		QueueTimeout:   20 * time.Millisecond,
		AsyncRetries:   1_000_000,
		AsyncStore:     db,
	})
	if err := dp1.Start(); err != nil {
		t.Fatal(err)
	}
	pushFunction(t, tr, dp1.Addr(), "f")
	for i := 0; i < 3; i++ {
		req := proto.InvokeRequest{Function: "f", Async: true, Payload: []byte{byte(i)}}
		if _, err := tr.Call(context.Background(), dp1.Addr(), proto.MethodInvoke, req.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	if dp1.PendingAsync() != 3 {
		t.Fatalf("persisted = %d, want 3", dp1.PendingAsync())
	}
	dp1.Stop() // crash: tasks remain durable

	// Second incarnation with the same store: tasks are recovered and,
	// once a sandbox exists, complete.
	startSandboxHost(t, tr, "w1:9000", 0)
	dp2 := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: 10 * time.Millisecond,
		QueueTimeout:   2 * time.Second,
		AsyncRetries:   10,
		AsyncStore:     db,
	})
	if err := dp2.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp2.Stop()
	waitCounter(t, dp2, "async_recovered", 3)
	pushFunction(t, tr, dp2.Addr(), "f")
	pushEndpoints(t, tr, dp2.Addr(), "f", []core.SandboxID{1}, "w1:9000")
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if dp2.metrics.Counter("async_completed").Value() >= 3 && dp2.PendingAsync() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("recovered tasks not completed: completed=%d pending=%d",
		dp2.metrics.Counter("async_completed").Value(), dp2.PendingAsync())
}

// TestAsyncAcceptOwnsItsPayload: the invoke decoder hands the async accept
// a payload inside the caller's frame, and the task outlives the call. The
// caller overwrites its buffer once the accept returns; the task must
// still execute, and its durable record still hold, the bytes it was sent.
func TestAsyncAcceptOwnsItsPayload(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	executed := make(chan []byte, 1)
	ln, err := tr.Listen("w1:9000", func(method string, payload []byte) ([]byte, error) {
		_, p, err := proto.DecodeInvokeSandboxRequest(payload)
		if err != nil {
			return nil, err
		}
		executed <- bytes.Clone(p)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	db := store.NewMemory()
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: 10 * time.Millisecond,
		QueueTimeout:   5 * time.Second,
		AsyncStore:     db,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	pushFunction(t, tr, dp.Addr(), "f")

	// No endpoint yet, so the task waits in the cold queue while the
	// caller's buffer changes.
	const sent = "original-payload"
	frame := (&proto.InvokeRequest{Function: "f", Async: true, Payload: []byte(sent)}).Marshal()
	if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodInvoke, frame); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 'X'
	}

	records := db.HGetAll(dp.asyncShardFor("f").hash)
	if len(records) != 1 {
		t.Fatalf("%d durable records, want 1", len(records))
	}
	for key, rec := range records {
		task, err := unmarshalAsyncTask(rec)
		if err != nil || task.function != "f" || string(task.payload) != sent {
			t.Errorf("record %s = %+v, %v; want function f, payload %q", key, task, err, sent)
		}
	}
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")
	select {
	case p := <-executed:
		if string(p) != sent {
			t.Errorf("executed payload %q, want %q", p, sent)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the async invocation never executed")
	}
}

func TestAsyncCorruptRecordDropped(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	db := store.NewMemory()
	db.HSet(asyncQueueHash, "bad", []byte{0xFF}) // unreadable record
	dp := New(Config{
		ID:            1,
		Addr:          "dp0:8000",
		Transport:     tr,
		ControlPlanes: []string{"cp"},
		AsyncStore:    db,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	waitCounter(t, dp, "async_recover_corrupt", 1)
	if db.HLen(asyncQueueHash) != 0 {
		t.Errorf("corrupt record not dropped")
	}
}

func TestPendingAsyncWithoutStore(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	dp := testDP(t, tr)
	if dp.PendingAsync() != 0 {
		t.Errorf("PendingAsync = %d", dp.PendingAsync())
	}
}

// TestAsyncShardsSpreadPersistence verifies the sharded queue actually
// stripes: tasks for functions in different shards persist under
// different store hashes, and PendingAsync sums across all of them.
func TestAsyncShardsSpreadPersistence(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	db := store.NewMemory()
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   20 * time.Millisecond,
		AsyncRetries:   1_000_000, // keep tasks pending
		AsyncStore:     db,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	hashes := make(map[string]bool)
	for i := 0; i < 16; i++ {
		fn := fmt.Sprintf("spread-%d", i)
		pushFunction(t, tr, dp.Addr(), fn)
		hashes[dp.asyncShardFor(fn).hash] = true
		req := proto.InvokeRequest{Function: fn, Async: true}
		if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodInvoke, req.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	if len(hashes) < 2 {
		t.Fatalf("16 functions all hashed to one shard; striping broken")
	}
	populated := 0
	for h := range hashes {
		if db.HLen(h) > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Errorf("durable records concentrated in %d hash(es), want >= 2", populated)
	}
	if got := dp.PendingAsync(); got != 16 {
		t.Errorf("PendingAsync = %d, want 16 across shards", got)
	}
}

// TestAsyncRecoverAcrossShardConfigs covers crash replay of records that
// binaries striping the queue differently left behind: three in the
// legacy unsharded hash, and three in "async-queue-40", a stripe this
// binary does not have, which only the index names. Every record must
// replay, complete, and settle in the hash it was found in. The legacy
// hash is the seed's layout, hence the subtest's name.
func TestAsyncRecoverAcrossShardConfigs(t *testing.T) {
	t.Run("seed-to-sharded", testAsyncRecoverLegacyAndIndexed)
}

func testAsyncRecoverLegacyAndIndexed(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	db := store.NewMemory()
	const indexed = asyncQueueHash + "-40"
	seedOwnedTasks(t, db, asyncQueueHash, 1, "f", 3)
	seedOwnedTasks(t, db, indexed, 1, "f", 3)
	if err := db.HSet(asyncIndexHash, indexed, []byte{1}); err != nil {
		t.Fatal(err)
	}

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
	waitCounter(t, dp, "async_recovered", 6)
	pushFunction(t, tr, dp.Addr(), "f")
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if dp.metrics.Counter("async_completed").Value() >= 6 && db.HLen(asyncQueueHash) == 0 && db.HLen(indexed) == 0 {
			if n := AsyncBacklog(db); n != 0 {
				t.Fatalf("%d records left after replay settled both hashes", n)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("recovered tasks not completed+settled: completed=%d legacy=%d indexed=%d",
		dp.metrics.Counter("async_completed").Value(), db.HLen(asyncQueueHash), db.HLen(indexed))
}

// TestAsyncRecoveredKeyNotReused: after a crash replay, freshly minted
// store keys must never collide with a recovered task's key — a
// collision would overwrite the recovered record (losing it on the next
// crash) or let either task's settlement delete the other's record.
func TestAsyncRecoveredKeyNotReused(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	db := store.NewMemory()
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   20 * time.Millisecond,
		AsyncRetries:   1_000_000, // keep both tasks pending
		AsyncStore:     db,
	})
	// A durable record in f's own shard hash whose key sequence is exactly
	// where the replica's key counter would mint next — the collision case.
	hash := dp.asyncShardFor("f").hash
	collidingKey := fmt.Sprintf("1-%d", asyncSeq.Load()+1)
	db.HSet(hash, collidingKey, marshalAsyncTask(asyncTask{function: "f"}))
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	waitCounter(t, dp, "async_recovered", 1)
	pushFunction(t, tr, dp.Addr(), "f")
	req := proto.InvokeRequest{Function: "f", Async: true}
	if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodInvoke, req.Marshal()); err != nil {
		t.Fatal(err)
	}
	// Both the recovered and the new record must coexist durably.
	if got := db.HLen(hash); got != 2 {
		t.Fatalf("store holds %d records, want 2 (new key reused %q)", got, collidingKey)
	}
}
