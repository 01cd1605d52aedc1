package codec

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.U8(0xAB)
	e.U16(0xBEEF)
	e.U32(0xDEADBEEF)
	e.U64(0x0123456789ABCDEF)
	e.I64(-42)
	e.F64(3.14159)
	e.Bool(true)
	e.Bool(false)
	e.String("hello, dirigent")
	e.RawBytes([]byte{1, 2, 3})

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 0xAB {
		t.Errorf("U8 = %x", got)
	}
	if got := d.U16(); got != 0xBEEF {
		t.Errorf("U16 = %x", got)
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %x", got)
	}
	if got := d.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if got := d.Bool(); !got {
		t.Errorf("Bool(true) = false")
	}
	if got := d.Bool(); got {
		t.Errorf("Bool(false) = true")
	}
	if got := d.String(); got != "hello, dirigent" {
		t.Errorf("String = %q", got)
	}
	if got := d.RawBytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("RawBytes = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Errorf("Err = %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestDecoderShortBufferIsSticky(t *testing.T) {
	d := NewDecoder([]byte{0x01})
	_ = d.U32() // needs 4 bytes, only 1 available
	if d.Err() == nil {
		t.Fatalf("expected short-buffer error")
	}
	// Every subsequent read must return zero values without panicking.
	if d.U8() != 0 || d.U64() != 0 || d.String() != "" || d.Bool() {
		t.Errorf("post-error reads should return zero values")
	}
}

// TestDecoderSkip: Skip passes over what fits and fails like a read on
// what does not.
func TestDecoderSkip(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3, 4})
	d.Skip(3)
	if d.U8() != 4 || d.End() != nil {
		t.Fatalf("Skip(3) then U8: err %v", d.Err())
	}
	d = NewDecoder([]byte{1, 2, 3})
	if d.Skip(4); d.Err() == nil || d.U8() != 0 {
		t.Errorf("Skip past the end: err %v", d.Err())
	}
}

func TestDecoderEmptyBuffer(t *testing.T) {
	d := NewDecoder(nil)
	if d.String() != "" {
		t.Errorf("empty decode should return empty string")
	}
	if d.Err() == nil {
		t.Errorf("expected error on empty buffer")
	}
}

// TestQuickStringRoundTrip property-tests that arbitrary strings survive
// encode/decode (up to the uint16 length prefix limit).
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 1<<16-1 {
			s = s[:1<<16-1]
		}
		e := NewEncoder(len(s) + 2)
		e.String(s)
		d := NewDecoder(e.Bytes())
		// StringBytes reads the same field without copying it.
		b := NewDecoder(e.Bytes()).StringBytes()
		aliases := len(s) == 0 || &b[0] == &e.Bytes()[2]
		return d.String() == s && d.Err() == nil && string(b) == s && aliases
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickScalarRoundTrip property-tests scalar fields.
func TestQuickScalarRoundTrip(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64, e int64, g float64, h bool) bool {
		if math.IsNaN(g) {
			return true // NaN != NaN by definition; bits still round-trip
		}
		enc := NewEncoder(64)
		enc.U8(a)
		enc.U16(b)
		enc.U32(c)
		enc.U64(d)
		enc.I64(e)
		enc.F64(g)
		enc.Bool(h)
		dec := NewDecoder(enc.Bytes())
		return dec.U8() == a && dec.U16() == b && dec.U32() == c &&
			dec.U64() == d && dec.I64() == e && dec.F64() == g &&
			dec.Bool() == h && dec.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickBytesRoundTrip property-tests raw byte slices.
func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		e := NewEncoder(len(b) + 4)
		e.RawBytes(b)
		d := NewDecoder(e.Bytes())
		got := d.RawBytes()
		return bytes.Equal(got, b) && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBloatedEncodeReachesTarget(t *testing.T) {
	for _, target := range []int{1024, 17 * 1024, 64 * 1024} {
		out := BloatedEncode("Pod", "fn-0-deployment-abc123", []byte("state"), target)
		if len(out) < target {
			t.Errorf("BloatedEncode(%d) produced %d bytes", target, len(out))
		}
		s := string(out)
		for _, want := range []string{"apiVersion:", "annotations:", "labels:", "containers:", "status:"} {
			if !strings.Contains(s, want) {
				t.Errorf("bloated encoding missing %q section", want)
			}
		}
	}
}

func TestBloatedEncodeDeterministic(t *testing.T) {
	a := BloatedEncode("ReplicaSet", "x", []byte("p"), 4096)
	b := BloatedEncode("ReplicaSet", "x", []byte("p"), 4096)
	if !bytes.Equal(a, b) {
		t.Errorf("bloated encoding should be deterministic")
	}
}
