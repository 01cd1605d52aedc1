package core

import (
	"fmt"
	"time"

	"dirigent/internal/codec"
)

// SandboxRecordSize is the size of the compact binary sandbox record.
// The paper highlights that Dirigent stores sandbox state in 16 bytes,
// versus K8s Pod definitions of up to 17 KB (§3.2).
const SandboxRecordSize = 16

// MarshalSandboxRecord encodes the routing-relevant sandbox state into a
// fixed 16-byte record: id(6) | function hash(2) | node(2) | ip(4) | port(2).
// The function name itself travels separately in registration metadata;
// the hash is used only as a cheap consistency check.
func MarshalSandboxRecord(s *Sandbox) [SandboxRecordSize]byte {
	var out [SandboxRecordSize]byte
	id := uint64(s.ID)
	for i := 0; i < 6; i++ {
		out[i] = byte(id >> (8 * i))
	}
	h := FunctionHash(s.Function)
	out[6] = byte(h)
	out[7] = byte(h >> 8)
	out[8] = byte(s.Node)
	out[9] = byte(s.Node >> 8)
	copy(out[10:14], s.IP[:])
	out[14] = byte(s.Port)
	out[15] = byte(s.Port >> 8)
	return out
}

// UnmarshalSandboxRecord decodes a 16-byte record produced by
// MarshalSandboxRecord. The function name cannot be recovered from the
// record alone; callers resolve it via the function-hash field.
func UnmarshalSandboxRecord(rec [SandboxRecordSize]byte) (id SandboxID, fnHash uint16, node NodeID, ip [4]byte, port uint16) {
	var v uint64
	for i := 0; i < 6; i++ {
		v |= uint64(rec[i]) << (8 * i)
	}
	id = SandboxID(v)
	fnHash = uint16(rec[6]) | uint16(rec[7])<<8
	node = NodeID(uint16(rec[8]) | uint16(rec[9])<<8)
	copy(ip[:], rec[10:14])
	port = uint16(rec[14]) | uint16(rec[15])<<8
	return id, fnHash, node, ip, port
}

// FunctionHash returns a 16-bit FNV-1a hash of a function name, used in
// compact sandbox records, for front-end load balancer steering and for
// shard striping. It takes the name as a string or as bytes still inside
// a received payload, so a decoder need not build a string to find a shard.
func FunctionHash[S string | []byte](name S) uint16 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	return uint16(h ^ (h >> 16))
}

// HashImage returns a 64-bit FNV-1a hash of a container image reference,
// used in node cache digests and placement requirements so the placer
// can test cache residency without shipping image name lists in every
// heartbeat. Never returns 0: placement treats a zero hash as "image
// unknown" (locality-blind).
func HashImage(image string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(image); i++ {
		h ^= uint64(image[i])
		h *= prime64
	}
	if h == 0 {
		return 1
	}
	return h
}

// Splitmix64 is the splitmix64 step function: a stateless 64-bit mixer
// for allocation-free, lock-free pseudo-random decisions. The data plane
// load balancers seed it from the invocation key for tie-breaks, the
// front end for rendezvous replica weighting.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MarshalFunction encodes a Function registration record (all persisted
// fields from paper Table 3).
func MarshalFunction(f *Function) []byte {
	e := codec.NewEncoder(64 + len(f.Name) + len(f.Image))
	e.String(f.Name)
	e.String(f.Image)
	e.U16(f.Port)
	e.String(f.Runtime)
	e.F64(f.Scaling.TargetConcurrency)
	e.I64(int64(f.Scaling.MinScale))
	e.I64(int64(f.Scaling.MaxScale))
	e.I64(int64(f.Scaling.StableWindow))
	e.I64(int64(f.Scaling.PanicWindow))
	e.F64(f.Scaling.PanicThreshold)
	e.I64(int64(f.Scaling.ScaleToZeroGrace))
	e.F64(f.Scaling.MaxScaleUpRate)
	e.I64(int64(f.Scaling.CPUMilli))
	e.I64(int64(f.Scaling.MemoryMB))
	return e.Bytes()
}

// UnmarshalFunction decodes a record produced by MarshalFunction.
func UnmarshalFunction(b []byte) (*Function, error) {
	d := codec.NewDecoder(b)
	f := &Function{}
	f.Name = d.String()
	f.Image = d.String()
	f.Port = d.U16()
	f.Runtime = d.String()
	f.Scaling.TargetConcurrency = d.F64()
	f.Scaling.MinScale = int(d.I64())
	f.Scaling.MaxScale = int(d.I64())
	f.Scaling.StableWindow = timeDuration(d.I64())
	f.Scaling.PanicWindow = timeDuration(d.I64())
	f.Scaling.PanicThreshold = d.F64()
	f.Scaling.ScaleToZeroGrace = timeDuration(d.I64())
	f.Scaling.MaxScaleUpRate = d.F64()
	f.Scaling.CPUMilli = int(d.I64())
	f.Scaling.MemoryMB = int(d.I64())
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("unmarshal function: %w", err)
	}
	return f, nil
}

// MarshalWorkerNode encodes a WorkerNode record (persisted: name, IP, port).
func MarshalWorkerNode(w *WorkerNode) []byte {
	e := codec.NewEncoder(32 + len(w.Name) + len(w.IP))
	e.U16(uint16(w.ID))
	e.String(w.Name)
	e.String(w.IP)
	e.U16(w.Port)
	e.I64(int64(w.CPUMilli))
	e.I64(int64(w.MemoryMB))
	return e.Bytes()
}

// UnmarshalWorkerNode decodes a record produced by MarshalWorkerNode.
func UnmarshalWorkerNode(b []byte) (*WorkerNode, error) {
	d := codec.NewDecoder(b)
	w := &WorkerNode{}
	w.ID = NodeID(d.U16())
	w.Name = d.String()
	w.IP = d.String()
	w.Port = d.U16()
	w.CPUMilli = int(d.I64())
	w.MemoryMB = int(d.I64())
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("unmarshal worker node: %w", err)
	}
	return w, nil
}

// MarshalDataPlane encodes a DataPlane record (persisted: IP, port).
func MarshalDataPlane(p *DataPlane) []byte {
	e := codec.NewEncoder(16 + len(p.IP))
	e.U16(uint16(p.ID))
	e.String(p.IP)
	e.U16(p.Port)
	return e.Bytes()
}

// UnmarshalDataPlane decodes a record produced by MarshalDataPlane.
func UnmarshalDataPlane(b []byte) (*DataPlane, error) {
	d := codec.NewDecoder(b)
	p := &DataPlane{}
	p.ID = DataPlaneID(d.U16())
	p.IP = d.String()
	p.Port = d.U16()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("unmarshal data plane: %w", err)
	}
	return p, nil
}

func timeDuration(v int64) time.Duration { return time.Duration(v) }
