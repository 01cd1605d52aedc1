package store

import (
	"bytes"
	"path/filepath"
	"testing"
	"testing/quick"

	"dirigent/internal/wal"
)

func TestMemoryHashes(t *testing.T) {
	s := NewMemory()
	if err := s.HSet("functions", "f1", []byte("spec1")); err != nil {
		t.Fatal(err)
	}
	if err := s.HSet("functions", "f2", []byte("spec2")); err != nil {
		t.Fatal(err)
	}
	if s.HLen("functions") != 2 {
		t.Errorf("HLen = %d", s.HLen("functions"))
	}
	v, ok := s.HGet("functions", "f1")
	if !ok || string(v) != "spec1" {
		t.Errorf("HGet = %q, %v", v, ok)
	}
	all := s.HGetAll("functions")
	if len(all) != 2 || string(all["f2"]) != "spec2" {
		t.Errorf("HGetAll = %v", all)
	}
	if err := s.HDel("functions", "f1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.HGet("functions", "f1"); ok {
		t.Errorf("HGet after HDel should report absence")
	}
	if err := s.HDel("functions", "f2"); err != nil {
		t.Fatal(err)
	}
	if s.HLen("functions") != 0 {
		t.Errorf("hash should be empty")
	}
	// Deleting from a nonexistent hash must be a no-op.
	if err := s.HDel("nope", "x"); err != nil {
		t.Errorf("HDel on missing hash: %v", err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.aof")
	s, err := Open(path, wal.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.HSet("meta", "epoch", []byte("epoch-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.HSet("workers", "w1", []byte("addr1")); err != nil {
		t.Fatal(err)
	}
	if err := s.HSet("workers", "w2", []byte("addr2")); err != nil {
		t.Fatal(err)
	}
	if err := s.HDel("workers", "w2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, wal.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.HGet("meta", "epoch"); !ok || string(v) != "epoch-1" {
		t.Errorf("HGet(meta) after reopen = %q, %v", v, ok)
	}
	if _, ok := s2.HGet("workers", "w2"); ok {
		t.Errorf("deleted field resurrected after reopen")
	}
	if v, ok := s2.HGet("workers", "w1"); !ok || string(v) != "addr1" {
		t.Errorf("HGet after reopen = %q, %v", v, ok)
	}
}

func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.aof")
	s, err := Open(path, wal.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	// Many overwrites of the same field bloat the AOF.
	for i := 0; i < 500; i++ {
		if err := s.HSet("h", "hot", bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, wal.FsyncNever)
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer s2.Close()
	v, ok := s2.HGet("h", "hot")
	if !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(499 % 256)}, 64)) {
		t.Errorf("compacted value lost")
	}
}

func TestOpMarshalRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpHSet, Key: "h", Field: "f", Value: []byte("x")},
		{Kind: OpHDel, Key: "h", Field: "f"},
	}
	for _, op := range ops {
		got, err := UnmarshalOp(op.Marshal())
		if err != nil {
			t.Fatalf("unmarshal %v: %v", op.Kind, err)
		}
		if got.Kind != op.Kind || got.Key != op.Key || got.Field != op.Field || !bytes.Equal(got.Value, op.Value) {
			t.Errorf("round trip %+v -> %+v", op, got)
		}
	}
	// The kind byte leads the record; 0 and 1 were plain-key kinds.
	for _, kind := range []OpKind{0, 1, 4, 255} {
		op := Op{Kind: kind, Key: "h", Field: "f", Value: []byte("x")}
		if got, err := UnmarshalOp(op.Marshal()); err == nil {
			t.Errorf("kind %d decoded as %+v, want an error", kind, got)
		}
	}
}

// TestQuickOpRoundTrip property-tests AOF op serialization.
func TestQuickOpRoundTrip(t *testing.T) {
	f := func(kind uint8, key, field string, value []byte) bool {
		if len(key) > 60000 || len(field) > 60000 {
			return true
		}
		op := Op{Kind: OpHSet + OpKind(kind%2), Key: key, Field: field, Value: value}
		got, err := UnmarshalOp(op.Marshal())
		if err != nil {
			return false
		}
		return got.Kind == op.Kind && got.Key == op.Key && got.Field == op.Field && bytes.Equal(got.Value, op.Value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzUnmarshalOp: every control-plane write reaches a follower as an Op
// on the Raft log, and the follower applies whatever decodes. No input
// panics, an accepted op survives a re-marshal unchanged, and an unknown
// kind is refused.
func FuzzUnmarshalOp(f *testing.F) {
	for _, op := range []Op{
		{Kind: OpHSet, Key: "functions", Field: "fn-0001", Value: []byte("spec")},
		{Kind: OpHDel, Key: "workers", Field: "w1"},
		{Kind: 0, Key: "cluster", Value: []byte("plain key")},
	} {
		f.Add(op.Marshal())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		op, err := UnmarshalOp(b)
		if err != nil {
			return
		}
		if op.Kind != OpHSet && op.Kind != OpHDel {
			t.Fatalf("accepted kind %d", op.Kind)
		}
		again, err := UnmarshalOp(op.Marshal())
		if err != nil {
			t.Fatalf("re-marshaled %+v does not decode: %v", op, err)
		}
		if again.Kind != op.Kind || again.Key != op.Key || again.Field != op.Field || !bytes.Equal(again.Value, op.Value) {
			t.Fatalf("round trip %+v -> %+v", op, again)
		}
	})
}

// TestOpenRefusesUnknownOpKind: a record of a kind the store does not know
// fails replay, and so the open, instead of being skipped.
func TestOpenRefusesUnknownOpKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.aof")
	log, err := wal.Open(path, wal.FsyncNever, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	good := Op{Kind: OpHSet, Key: "h", Field: "f", Value: []byte("v")}
	plain := Op{Kind: 0, Key: "cluster", Value: []byte("epoch-1")}
	for _, op := range []Op{good, plain} {
		if err := log.Append(op.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(path, wal.FsyncNever); err == nil {
		s.Close()
		t.Fatalf("opened an AOF holding a kind-0 record")
	}
}

func TestDumpOpsReconstructsState(t *testing.T) {
	s := NewMemory()
	s.HSet("a", "f", []byte("1"))
	s.HSet("h", "f1", []byte("2"))
	s.HSet("h", "f2", []byte("3"))
	s.HSet("h", "gone", []byte("4"))
	s.HDel("h", "gone")
	clone := NewMemory()
	for _, op := range s.DumpOps() {
		if err := clone.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := clone.HGet("a", "f"); string(v) != "1" {
		t.Errorf("clone missing hash a")
	}
	if clone.HLen("h") != 2 {
		t.Errorf("clone has %d fields in hash h, want 2", clone.HLen("h"))
	}
}
