package proto

import (
	"bytes"
	"testing"
)

// The fuzz targets below hold each invoke decoder to three properties: no
// input panics it, an input it accepts re-marshals to an equal value, and
// every strict prefix of a valid encoding is refused. Their seed corpora
// run under plain go test; `go test -fuzz FuzzX ./internal/proto` explores.

func FuzzDecodeInvokeRequest(f *testing.F) {
	for _, m := range []InvokeRequest{
		{},
		{Function: "fn-0000", Payload: bytes.Repeat([]byte{0xA5}, 128)},
		{Function: "f", Async: true},
	} {
		f.Add(m.Marshal())
	}
	f.Add([]byte{0xFF, 0xFF, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		function, async, payload, err := DecodeInvokeRequest(b)
		if err != nil {
			return
		}
		if m, err := UnmarshalInvokeRequest(b); err != nil || m.Function != string(function) || m.Async != async || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("Unmarshal disagrees with Decode: %+v, %v", m, err)
		}
		enc := (&InvokeRequest{Function: string(function), Async: async, Payload: payload}).Marshal()
		f2, a2, p2, err := DecodeInvokeRequest(enc)
		if err != nil || !bytes.Equal(f2, function) || a2 != async || !bytes.Equal(p2, payload) {
			t.Fatalf("re-marshal decodes to %q %v %q, %v; want %q %v %q", f2, a2, p2, err, function, async, payload)
		}
		for cut := range len(enc) {
			if _, _, _, err := DecodeInvokeRequest(enc[:cut]); err == nil {
				t.Fatalf("prefix of %d of %d bytes accepted", cut, len(enc))
			}
		}
	})
}

func FuzzDecodeInvokeSandboxRequest(f *testing.F) {
	for _, m := range []InvokeSandboxRequest{
		{},
		{SandboxID: 7, Function: "fn-0000", Payload: bytes.Repeat([]byte{0x5A}, 128)},
		{SandboxID: 1 << 40, Function: "f"},
	} {
		f.Add(m.Marshal())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		id, payload, err := DecodeInvokeSandboxRequest(b)
		m, uerr := UnmarshalInvokeSandboxRequest(b)
		if (err == nil) != (uerr == nil) {
			t.Fatalf("Decode says %v, Unmarshal says %v", err, uerr)
		}
		if err != nil {
			return
		}
		if m.SandboxID != id || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("Unmarshal %+v disagrees with Decode %d %q", m, id, payload)
		}
		enc := m.Marshal()
		got, err := UnmarshalInvokeSandboxRequest(enc)
		if err != nil || got.SandboxID != m.SandboxID || got.Function != m.Function || !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("re-marshal decodes to %+v, %v; want %+v", got, err, m)
		}
		for cut := range len(enc) {
			if _, _, err := DecodeInvokeSandboxRequest(enc[:cut]); err == nil {
				t.Fatalf("prefix of %d of %d bytes accepted", cut, len(enc))
			}
		}
	})
}

func FuzzUnmarshalInvokeResponse(f *testing.F) {
	for _, m := range []InvokeResponse{
		{},
		{ColdStart: true, SchedulingLatencyUs: 631, Body: bytes.Repeat([]byte{0x3C}, 128)},
		{SchedulingLatencyUs: -1, Body: []byte("accepted")},
	} {
		f.Add(m.Marshal())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := UnmarshalInvokeResponse(b)
		if err != nil {
			return
		}
		enc := m.Marshal()
		got, err := UnmarshalInvokeResponse(enc)
		if err != nil || got.ColdStart != m.ColdStart || got.SchedulingLatencyUs != m.SchedulingLatencyUs || !bytes.Equal(got.Body, m.Body) {
			t.Fatalf("re-marshal decodes to %+v, %v; want %+v", got, err, m)
		}
		for cut := range len(enc) {
			if _, err := UnmarshalInvokeResponse(enc[:cut]); err == nil {
				t.Fatalf("prefix of %d of %d bytes accepted", cut, len(enc))
			}
		}
	})
}

// Sinks keep the measured decodes from being optimized away.
var (
	sinkBytes []byte
	sinkBool  bool
)

// TestInvokeDecodersAllocateNothing: the in-place decoders hand back
// sub-slices of the frame and build nothing.
func TestInvokeDecodersAllocateNothing(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 128)
	req := (&InvokeRequest{Function: "fn-0000", Payload: payload}).Marshal()
	sbx := (&InvokeSandboxRequest{SandboxID: 3, Function: "fn-0000", Payload: payload}).Marshal()

	function, _, p, err := DecodeInvokeRequest(req)
	if err != nil || string(function) != "fn-0000" || !bytes.Equal(p, payload) {
		t.Fatalf("DecodeInvokeRequest = %q %q, %v", function, p, err)
	}
	if &p[0] != &req[len(req)-len(payload)] || &function[0] != &req[2] {
		t.Error("DecodeInvokeRequest copied instead of sub-slicing the frame")
	}
	id, p, err := DecodeInvokeSandboxRequest(sbx)
	if err != nil || id != 3 || &p[0] != &sbx[len(sbx)-len(payload)] {
		t.Fatalf("DecodeInvokeSandboxRequest = %d, %v: not the frame's payload", id, err)
	}

	if n := testing.AllocsPerRun(1000, func() {
		sinkBytes, sinkBool, sinkBytes, _ = DecodeInvokeRequest(req)
	}); n != 0 {
		t.Errorf("DecodeInvokeRequest allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		_, sinkBytes, _ = DecodeInvokeSandboxRequest(sbx)
	}); n != 0 {
		t.Errorf("DecodeInvokeSandboxRequest allocates %.0f times, want 0", n)
	}
}

// TestInvokeAppendToExtends: AppendTo writes the bytes Marshal does after
// whatever its buffer already holds, and into that buffer's storage when
// it has room, so a reused buffer costs nothing.
func TestInvokeAppendToExtends(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 128)
	for name, m := range map[string]interface {
		Marshal() []byte
		AppendTo([]byte) []byte
	}{
		"InvokeRequest":        &InvokeRequest{Function: "fn-0000", Async: true, Payload: payload},
		"InvokeSandboxRequest": &InvokeSandboxRequest{SandboxID: 7, Function: "fn-0000", Payload: payload},
	} {
		want := m.Marshal()
		prefix := []byte("held")
		got := m.AppendTo(append(make([]byte, 0, 512), prefix...))
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%s: AppendTo = %x, want %x after the held bytes", name, got, want)
		}
		buf := make([]byte, 0, 512)
		if allocs := testing.AllocsPerRun(100, func() { buf = m.AppendTo(buf[:0]) }); allocs != 0 {
			t.Errorf("%s: AppendTo into a buffer with room allocates %.0f times", name, allocs)
		}
	}
}
