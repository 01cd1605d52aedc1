package proto

import (
	"dirigent/internal/codec"
	"dirigent/internal/core"
)

// MethodInvokeSandbox is the DP → WN proxy hop: the data plane forwards an
// invocation to the worker hosting the chosen sandbox. In the paper's
// deployment the data plane proxies to the sandbox IP:port through
// iptables NAT on the worker; here the worker daemon performs the final
// dispatch, which preserves the same single-proxy-hop structure.
const MethodInvokeSandbox = "wn.InvokeSandbox"

// InvokeSandboxRequest carries a proxied invocation to a worker.
type InvokeSandboxRequest struct {
	SandboxID core.SandboxID
	Function  string
	Payload   []byte
}

// Marshal encodes the request into a buffer of its own.
func (m *InvokeSandboxRequest) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, 24+len(m.Function)+len(m.Payload)))
}

// AppendTo appends the encoded request to dst and returns the extended
// buffer, so a caller can encode into one it reuses.
func (m *InvokeSandboxRequest) AppendTo(dst []byte) []byte {
	var e codec.Encoder
	e.Extend(dst)
	e.U64(uint64(m.SandboxID))
	e.String(m.Function)
	e.RawBytes(m.Payload)
	return e.Bytes()
}

// UnmarshalInvokeSandboxRequest decodes an InvokeSandboxRequest. Payload
// aliases b.
func UnmarshalInvokeSandboxRequest(b []byte) (*InvokeSandboxRequest, error) {
	id, function, payload, err := decodeInvokeSandboxRequest(b)
	return &InvokeSandboxRequest{SandboxID: id, Function: string(function), Payload: payload}, err
}

// DecodeInvokeSandboxRequest decodes an InvokeSandboxRequest in place and
// allocates nothing: payload aliases b, on the terms DecodeInvokeRequest
// states. The function name, which a worker does not need to dispatch,
// is skipped.
func DecodeInvokeSandboxRequest(b []byte) (core.SandboxID, []byte, error) {
	id, _, payload, err := decodeInvokeSandboxRequest(b)
	return id, payload, err
}

func decodeInvokeSandboxRequest(b []byte) (id core.SandboxID, function, payload []byte, err error) {
	d := codec.NewDecoder(b)
	id = core.SandboxID(d.U64())
	function = d.StringBytes()
	payload = d.RawBytes()
	if err := d.Err(); err != nil {
		return 0, nil, nil, wrap(err, "InvokeSandboxRequest")
	}
	return id, function, payload, nil
}
