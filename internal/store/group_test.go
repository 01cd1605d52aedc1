package store

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"dirigent/internal/wal"
)

// TestGroupCommitConcurrentMutationsDurable verifies the store's
// two-phase apply (buffer + in-memory under the lock, durability wait
// outside it): concurrent HSets under wal.FsyncGroup are all durable
// after Close and replay with the same values.
func TestGroupCommitConcurrentMutationsDurable(t *testing.T) {
	const (
		writers = 8
		perW    = 40
	)
	path := filepath.Join(t.TempDir(), "group.aof")
	s, err := Open(path, wal.FsyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				field := fmt.Sprintf("w%d-f%d", w, i)
				if err := s.HSet("sandboxes", field, []byte(field)); err != nil {
					t.Errorf("hset: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rounds, records := s.SyncStats()
	if records != writers*perW {
		t.Errorf("SyncStats records = %d, want %d", records, writers*perW)
	}
	t.Logf("store group commit: %d records in %d fsyncs", records, rounds)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, wal.FsyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.HLen("sandboxes"); got != writers*perW {
		t.Fatalf("reopened store has %d fields, want %d", got, writers*perW)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			field := fmt.Sprintf("w%d-f%d", w, i)
			v, ok := s2.HGet("sandboxes", field)
			if !ok || string(v) != field {
				t.Fatalf("field %s = %q after replay, want itself", field, v)
			}
		}
	}
}
