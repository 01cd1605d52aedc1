// Package store implements the Redis-like persistent key-value store that
// Dirigent's control plane uses for the minimal cluster state it persists
// (paper §4: Redis in append-only mode with fsync at each query, one
// replica co-located with each control plane replica).
//
// The store holds hashes (field → value maps, one per object collection:
// functions, worker nodes, data planes). Every mutation is appended to a
// write-ahead log before it is acknowledged.
package store

import (
	"fmt"
	"sync"

	"dirigent/internal/codec"
	"dirigent/internal/wal"
)

// OpKind enumerates the mutation types recorded in the AOF and the
// control plane's Raft log.
type OpKind uint8

// Mutation kinds. The values are written to AOFs and Raft logs, so they
// never change; any other kind byte, 0 and 1 included, is refused.
const (
	OpHSet OpKind = 2
	OpHDel OpKind = 3
)

// Op is a single mutation. For hash operations, Key is the hash name and
// Field the member key.
type Op struct {
	Kind  OpKind
	Key   string
	Field string
	Value []byte
}

// Marshal encodes the op for the AOF.
func (o *Op) Marshal() []byte {
	e := codec.NewEncoder(16 + len(o.Key) + len(o.Field) + len(o.Value))
	e.U8(uint8(o.Kind))
	e.String(o.Key)
	e.String(o.Field)
	e.RawBytes(o.Value)
	return e.Bytes()
}

// UnmarshalOp decodes an op written by Op.Marshal, refusing an unknown
// kind.
func UnmarshalOp(b []byte) (Op, error) {
	d := codec.NewDecoder(b)
	var o Op
	o.Kind = OpKind(d.U8())
	if d.Err() == nil && o.Kind != OpHSet && o.Kind != OpHDel {
		return Op{}, fmt.Errorf("store: unmarshal op: unknown kind %d", o.Kind)
	}
	o.Key = d.String()
	o.Field = d.String()
	if v := d.RawBytes(); len(v) > 0 {
		o.Value = append([]byte(nil), v...)
	}
	if err := d.Err(); err != nil {
		return Op{}, fmt.Errorf("store: unmarshal op: %w", err)
	}
	return o, nil
}

// Store is an in-memory hash store with optional AOF persistence. It is
// safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	hashes map[string]map[string][]byte
	log    *wal.Log // nil for a purely in-memory store
}

// NewMemory returns a volatile store with no persistence, used for tests
// and for replicas that receive state via replication streams.
func NewMemory() *Store {
	return &Store{hashes: make(map[string]map[string][]byte)}
}

// Open returns a store persisted at path, replaying any existing AOF.
func Open(path string, policy wal.FsyncPolicy) (*Store, error) {
	s := NewMemory()
	log, err := wal.Open(path, policy, func(rec []byte) error {
		op, err := UnmarshalOp(rec)
		if err != nil {
			return err
		}
		s.applyLocked(op)
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.log = log
	return s, nil
}

// applyLocked mutates in-memory state. Callers must hold mu or guarantee
// exclusive access (as during replay inside Open).
func (s *Store) applyLocked(op Op) {
	switch op.Kind {
	case OpHSet:
		h, ok := s.hashes[op.Key]
		if !ok {
			h = make(map[string][]byte)
			s.hashes[op.Key] = h
		}
		h[op.Field] = op.Value
	case OpHDel:
		if h, ok := s.hashes[op.Key]; ok {
			delete(h, op.Field)
			if len(h) == 0 {
				delete(s.hashes, op.Key)
			}
		}
	}
}

// Apply executes the mutation, persisting it first when an AOF is
// attached. Under wal.FsyncGroup the record is buffered and the memory
// state mutated under the store lock (so log order always matches apply
// order) while the durability wait happens outside it — concurrent
// Applys ride the same fsync instead of queueing one fsync each behind
// the store lock. Other policies complete the whole append under the
// lock, exactly like the seed.
func (s *Store) Apply(op Op) error {
	seq, err := s.applyBuffered(op)
	if err != nil {
		return err
	}
	return s.waitDurable(seq)
}

// applyBuffered persists and mutates under the store lock, returning the
// WAL sequence to pass to waitDurable (0 when nothing remains to wait
// for). Under FsyncNever/FsyncAlways the full append — including the
// per-mutation fsync — completes here, preserving the seed's atomicity:
// an append error leaves the in-memory state untouched. Under
// wal.FsyncGroup only the buffered write happens under the lock and the
// caller waits for the covering group fsync outside it; a group-fsync
// failure then poisons the log, so the store fails stop (every later
// mutation errors) rather than silently diverging memory from disk.
func (s *Store) applyBuffered(op Op) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyBufferedLocked(op)
}

// applyBufferedLocked is applyBuffered for callers that already hold mu —
// the fenced conditional ops check state and append under one critical
// section so the check-then-act is atomic.
func (s *Store) applyBufferedLocked(op Op) (uint64, error) {
	var seq uint64
	if s.log != nil {
		var err error
		if s.log.Policy() == wal.FsyncGroup {
			seq, err = s.log.Write(op.Marshal())
		} else {
			err = s.log.Append(op.Marshal())
		}
		if err != nil {
			return 0, err
		}
	}
	s.applyLocked(op)
	return seq, nil
}

// ApplyBatch executes a sequence of mutations under one lock acquisition
// and (when an AOF is attached) one durability wait covering the whole
// batch — the apply-side analogue of group commit, used by a replication
// follower absorbing a committed AppendEntries batch.
func (s *Store) ApplyBatch(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	var last uint64
	s.mu.Lock()
	for _, op := range ops {
		seq, err := s.applyBufferedLocked(op)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		if seq > last {
			last = seq
		}
	}
	s.mu.Unlock()
	return s.waitDurable(last)
}

// waitDurable blocks until the record with the given sequence is as
// durable as the store's fsync policy demands.
func (s *Store) waitDurable(seq uint64) error {
	if seq == 0 || s.log == nil {
		return nil
	}
	return s.log.Sync(seq)
}

// SyncStats reports the backing log's fsync rounds and records covered
// (both zero for a volatile store); records/rounds is the mean
// group-commit batch size.
func (s *Store) SyncStats() (rounds, records uint64) {
	if s.log == nil {
		return 0, 0
	}
	return s.log.SyncStats()
}

// HSet stores value under field within hash.
func (s *Store) HSet(hash, field string, value []byte) error {
	return s.Apply(Op{Kind: OpHSet, Key: hash, Field: field, Value: value})
}

// HDel removes field from hash.
func (s *Store) HDel(hash, field string) error {
	return s.Apply(Op{Kind: OpHDel, Key: hash, Field: field})
}

// HGet returns the value of field within hash.
func (s *Store) HGet(hash, field string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.hashes[hash]
	if !ok {
		return nil, false
	}
	v, ok := h[field]
	return v, ok
}

// HGetAll returns a copy of all field → value pairs of hash.
func (s *Store) HGetAll(hash string) map[string][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := s.hashes[hash]
	out := make(map[string][]byte, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// HRange calls visit with each value of hash, in no set order, under the
// store's read lock, so it copies nothing: visit must not call into the
// store or modify value.
func (s *Store) HRange(hash string, visit func(value []byte)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, v := range s.hashes[hash] {
		visit(v)
	}
}

// HLen returns the number of fields in hash.
func (s *Store) HLen(hash string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.hashes[hash])
}

// DumpOps returns the mutation sequence that reconstructs the current
// state, used for compaction.
func (s *Store) DumpOps() []Op {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ops []Op
	for hash, fields := range s.hashes {
		for f, v := range fields {
			ops = append(ops, Op{Kind: OpHSet, Key: hash, Field: f, Value: v})
		}
	}
	return ops
}

// Compact rewrites the AOF to contain only the live state.
func (s *Store) Compact() error {
	if s.log == nil {
		return nil
	}
	ops := s.DumpOps()
	recs := make([][]byte, len(ops))
	for i := range ops {
		recs[i] = ops[i].Marshal()
	}
	return s.log.Rewrite(recs)
}

// Close closes the AOF, if any.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}
