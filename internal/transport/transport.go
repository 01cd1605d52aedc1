// Package transport provides the RPC layer connecting Dirigent's
// components. The paper's implementation uses gRPC calls "invokable at any
// time, rather than through periodic heartbeats like in Mesos and YARN"
// (§4); this package supplies the same request/response semantics with two
// interchangeable implementations: an in-process transport used by the
// single-process cluster harness, tests, and benchmarks, and a TCP
// transport with length-prefixed binary frames used by the standalone
// component binaries under cmd/.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/race"
)

// HandlerFunc serves one RPC: it receives the method name and request
// payload and returns the response payload. The payload belongs to the
// call: it stays valid and unchanged until the handler returns, which is
// what lets the decoders hand out sub-slices of it instead of copies, and
// a handler copies whatever part of it it keeps past that. The response
// may alias the payload (an echo returns it whole). Both transports reuse
// the payload's buffer once the handler has returned: an in-process
// caller for its next request, the TCP server for a later request frame
// once the response is written. In race builds PutFrame poisons a buffer
// before pooling it, so a handler that keeps part of a payload reads the
// poison.
//
// The caller owns the buffer it passed to Call. It may reuse it only
// after a Call that returned a response, and only once it is done with
// that response, which may alias the buffer in process. After a Call that
// failed it drops the buffer: a handler the caller stopped waiting for,
// or work the handler handed on, may still be reading it.
type HandlerFunc func(method string, payload []byte) ([]byte, error)

// maxPooledFrame bounds the buffers PutFrame keeps, so one large payload
// does not pin its memory in the pool.
const maxPooledFrame = 64 << 10

// framePool holds request buffers for callers to encode into.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// GetFrame returns an empty buffer, from the pool when it has one, for a
// caller to encode a request into: *b = m.AppendTo(*b).
func GetFrame() *[]byte {
	b := framePool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// framePoison is what PutFrame fills a buffer with in race builds.
const framePoison = 0xa5

// PutFrame gives b back to the pool, on the terms HandlerFunc states: only
// after a Call that returned a response, and once nothing reads that
// response out of b. A buffer grown past 64 KiB is dropped instead. In
// race builds the buffer is first overwritten with framePoison, so a
// reader that kept part of it sees the breach.
func PutFrame(b *[]byte) {
	if race.Enabled {
		full := (*b)[:cap(*b)]
		for i := range full {
			full[i] = framePoison
		}
	}
	if cap(*b) <= maxPooledFrame {
		framePool.Put(b)
	}
}

// Transport abstracts an RPC fabric addressed by opaque string addresses.
type Transport interface {
	// Listen registers a handler at addr. The returned Listener stops
	// serving when closed.
	Listen(addr string, h HandlerFunc) (Listener, error)
	// Call performs a unary RPC against addr.
	Call(ctx context.Context, addr, method string, payload []byte) ([]byte, error)
}

// Listener is a served address that can be shut down.
type Listener interface {
	// Addr returns the bound address (useful when listening on ":0").
	Addr() string
	// Close stops serving; in-flight handlers finish.
	Close() error
}

// Errors returned by transports.
var (
	// ErrUnreachable reports that nothing is listening at the address,
	// the in-process analogue of "connection refused".
	ErrUnreachable = errors.New("transport: address unreachable")
	// ErrAddrInUse reports a duplicate Listen on the same address.
	ErrAddrInUse = errors.New("transport: address already in use")
	// ErrRemote wraps an application error returned by the remote handler.
	ErrRemote = errors.New("transport: remote error")
)

// RemoteError reports a handler-side failure transported back to the
// caller. It unwraps to ErrRemote.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "transport: remote error: " + e.Msg }

// Unwrap makes errors.Is(err, ErrRemote) true.
func (e *RemoteError) Unwrap() error { return ErrRemote }

// InProc is an in-process Transport. Calls execute the handler directly on
// the caller's goroutine, with an optional per-call latency to model a
// network. Closing an endpoint makes subsequent calls fail with
// ErrUnreachable, which the cluster harness uses for failure injection.
//
// A call takes no lock. The address table is a sync.Map, whose Load takes
// none, and Listen and Close each change one entry of it, so a fabric of
// thousands of addresses listens in O(1) per address. An endpoint's
// handler never changes, and its closed flag and the latency are atomics.
type InProc struct {
	endpoints sync.Map     // addr → *inprocEndpoint
	latency   atomic.Int64 // a time.Duration added to every call; 0 for none
}

type inprocEndpoint struct {
	addr    string
	handler HandlerFunc
	owner   *InProc
	closed  atomic.Bool
}

// NewInProc returns an empty in-process transport fabric.
func NewInProc() *InProc { return new(InProc) }

// SetLatency sets a simulated per-call network latency.
func (t *InProc) SetLatency(d time.Duration) { t.latency.Store(int64(d)) }

// Listen implements Transport.
func (t *InProc) Listen(addr string, h HandlerFunc) (Listener, error) {
	if h == nil {
		return nil, errors.New("transport: nil handler")
	}
	ep := &inprocEndpoint{addr: addr, handler: h, owner: t}
	if _, loaded := t.endpoints.LoadOrStore(addr, ep); loaded {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	return ep, nil
}

// Call implements Transport. It checks the caller's context before the
// handler runs, asking a *Deadline nobody has consulted only whether its
// parent has ended (see ended). A call made after an endpoint's Close
// has returned does not find the endpoint, so never runs its handler.
func (t *InProc) Call(ctx context.Context, addr, method string, payload []byte) ([]byte, error) {
	v, ok := t.endpoints.Load(addr)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	ep := v.(*inprocEndpoint)
	if ep.closed.Load() {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	if latency := time.Duration(t.latency.Load()); latency > 0 {
		select {
		case <-time.After(latency):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ended(ctx); err != nil {
		return nil, err
	}
	resp, err := ep.handler(method, payload)
	if err != nil {
		return nil, &RemoteError{Msg: err.Error()}
	}
	return resp, nil
}

// Addr implements Listener.
func (ep *inprocEndpoint) Addr() string { return ep.addr }

// Close implements Listener.
func (ep *inprocEndpoint) Close() error {
	ep.closed.Store(true)
	ep.owner.endpoints.CompareAndDelete(ep.addr, ep)
	return nil
}
