// Package codec implements the compact binary serialization Dirigent uses
// for cluster state (paper §3.2: "we adopt a minimalist metadata and
// storage schema and store state in a serialized binary format", with a
// sandbox record of 16 bytes), plus a deliberately bloated text encoder
// that models the ~17 KB deeply nested YAML objects K8s-based managers
// serialize on every state update (paper §2.2).
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Encoder appends fixed-width little-endian fields and length-prefixed
// strings to a byte buffer.
type Encoder struct{ buf []byte }

// NewEncoder returns an encoder with an optional pre-sized buffer.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Extend discards what e holds and appends from now on to buf, after the
// bytes buf already holds, reusing its storage (buf[:0] starts empty). The
// caller owns buf: it may hand it to Extend again once it is done with the
// bytes Bytes returned.
func (e *Encoder) Extend(buf []byte) { e.buf = buf }

// PutU32At overwrites with v the four bytes at off, which an earlier U32
// appended: a count or length known only once what it prefixes has been
// appended behind it.
func (e *Encoder) PutU32At(off int, v uint32) {
	binary.LittleEndian.PutUint32(e.buf[off:], v)
}

// U8 appends an unsigned 8-bit value.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends an unsigned 16-bit value.
func (e *Encoder) U16(v uint16) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}

// U32 appends an unsigned 32-bit value.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends an unsigned 64-bit value.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends a signed 64-bit value.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a 64-bit float.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// String appends a uint16 length prefix followed by the raw bytes.
// Strings longer than 64 KiB are rejected at decode time, which is far
// beyond anything Dirigent's minimal schema produces.
func (e *Encoder) String(s string) {
	e.U16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

// RawBytes appends a uint32 length prefix followed by the raw bytes.
func (e *Encoder) RawBytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder reads fields appended by Encoder. Errors are sticky: after the
// first failure every further read returns the zero value and Err reports
// the original error.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// End returns Err, or an error when bytes remain unread: how a message
// that must fill its buffer exactly ends its decoding.
func (d *Decoder) End() error {
	if d.err == nil && d.off != len(d.buf) {
		return fmt.Errorf("codec: %d trailing bytes at offset %d", len(d.buf)-d.off, d.off)
	}
	return d.err
}

func (d *Decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("codec: short buffer: need %d bytes at offset %d, have %d", n, d.off, len(d.buf)-d.off)
		return false
	}
	return true
}

// U8 reads an unsigned 8-bit value.
func (d *Decoder) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U16 reads an unsigned 16-bit value.
func (d *Decoder) U16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

// U32 reads an unsigned 32-bit value.
func (d *Decoder) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads an unsigned 64-bit value.
func (d *Decoder) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 reads a signed 64-bit value.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a 64-bit float.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// String reads a string written by Encoder.String.
func (d *Decoder) String() string { return string(d.StringBytes()) }

// StringBytes reads a string written by Encoder.String without copying
// it. The returned slice aliases the decoder's buffer.
func (d *Decoder) StringBytes() []byte {
	n := int(d.U16())
	if !d.need(n) {
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// RawBytes reads a byte slice written by Encoder.RawBytes. The returned
// slice aliases the decoder's buffer.
func (d *Decoder) RawBytes() []byte {
	n := int(d.U32())
	if n < 0 || !d.need(n) {
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// BloatedEncode wraps payload into a deeply nested YAML-like document padded
// with long keys, annotations, labels, environment blocks, and state
// transition timestamps until it reaches at least targetBytes. This models
// the serialization work a K8s API server performs per object update
// (paper §2.2: key-value pairs averaging 17 kB, represented as deeply
// nested trees). The Knative baseline's cost model charges CPU time
// proportional to the size of this encoding.
func BloatedEncode(kind, name string, payload []byte, targetBytes int) []byte {
	var b strings.Builder
	b.Grow(targetBytes + 512)
	fmt.Fprintf(&b, "apiVersion: serving.internal/v1\nkind: %s\nmetadata:\n  name: %s\n", kind, name)
	b.WriteString("  annotations:\n")
	i := 0
	for b.Len() < targetBytes*6/10 {
		fmt.Fprintf(&b, "    orchestration.internal/controller-revision-annotation-%04d: \"reconciliation-state-marker-%04d\"\n", i, i)
		i++
	}
	b.WriteString("  labels:\n")
	for b.Len() < targetBytes*8/10 {
		fmt.Fprintf(&b, "    workload.internal/selector-label-key-with-long-prefix-%04d: value-%04d\n", i, i)
		i++
	}
	b.WriteString("spec:\n  template:\n    spec:\n      containers:\n      - env:\n")
	for b.Len() < targetBytes {
		fmt.Fprintf(&b, "        - name: INJECTED_RUNTIME_ENVIRONMENT_VARIABLE_%04d\n          value: \"%04d\"\n", i, i)
		i++
	}
	fmt.Fprintf(&b, "status:\n  observedGeneration: %d\n  payload: %q\n", i, payload)
	return []byte(b.String())
}
