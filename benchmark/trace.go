package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/proto"
	"dirigent/internal/transport"
	"dirigent/internal/worker"
)

// Tracing is outside-in: nothing in the program is instrumented. Every
// component is handed a tracedTransport naming its tier, which times both
// the calls the component makes and the handlers it serves, and the echo
// handler is wrapped the same way. Spans of one invocation are joined by
// the request ID in its payload; spans of one cold start by function name
// and sandbox ID (coldtrace.go).

type tier uint8

const (
	tierFrontend tier = iota
	tierDataPlane
	tierControlPlane
	tierWorker
	numTiers
)

var tierNames = [numTiers]string{"frontend", "dataplane", "controlplane", "worker"}

type side uint8

const (
	sideCall   side = iota // the tier is the client of the RPC
	sideHandle             // the tier serves the RPC
	numSides
)

var sideNames = [numSides]string{"call", "handle"}

// Recorder modes. Off, a wrapper costs one atomic load. Count adds the
// RPC and byte counters (used during set-up). Full adds spans.
const (
	modeOff int32 = iota
	modeCount
	modeFull
)

// span is one timed interval, in nanoseconds since the recorder's base.
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// selfTime is the part of parent that child does not cover: parent's
// duration minus that of child clipped to parent. Every span here has at
// most one child.
func selfTime(parent, child span) int64 {
	child.start = max(child.start, parent.start)
	child.end = min(child.end, parent.end)
	return parent.dur() - max(0, child.dur())
}

// atomicSpan is a span written by one goroutine and read by another; over
// TCP the only ordering between the two is a socket, which the race
// detector does not see.
type atomicSpan struct{ start, end atomic.Int64 }

func (a *atomicSpan) set(s span) { a.start.Store(s.start); a.end.Store(s.end) }
func (a *atomicSpan) get() span  { return span{a.start.Load(), a.end.Load()} }

// opRecord collects the spans of one invocation. The generator claims it
// before the call and folds it after; the wrappers fill it in between.
type opRecord struct {
	id       atomic.Uint64
	dpNode   atomic.Int32
	feCall   atomicSpan // front end's dp.Invoke call
	dpHandle atomicSpan // data plane's dp.Invoke handler
	dpCall   atomicSpan // data plane's wn.InvokeSandbox call
	wnHandle atomicSpan // worker's wn.InvokeSandbox handler
	user     atomicSpan // the function body
}

func (r *opRecord) claim(id uint64) {
	for _, s := range []*atomicSpan{&r.feCall, &r.dpHandle, &r.dpCall, &r.wnHandle, &r.user} {
		s.set(span{})
	}
	r.dpNode.Store(-1)
	r.id.Store(id)
}

// The open loop's ring of records, indexed by sequence: larger than its
// cap on outstanding invocations.
const opRingSize = 2048

type opKey struct{}

// methodStats is what the wrappers keep per (tier, side, method).
type methodStats struct {
	calls atomic.Int64
	bytes atomic.Int64 // request + response payload bytes
	dur   hist
}

// Methods the trace tells apart; everything else (heartbeats, membership
// polls, registration) is counted as methodOther.
const (
	methodInvoke = iota
	methodInvokeSandbox
	methodScalingMetric
	methodCreateSandbox
	methodCreateSandboxBatch
	methodSandboxReady
	methodSandboxReadyBatch
	methodUpdateEndpoints
	methodUpdateEndpointsBatch
	methodAddFunction
	methodKillSandbox
	methodOther
	numMethods
)

var methodNames = [numMethods]string{
	proto.MethodInvoke, proto.MethodInvokeSandbox, proto.MethodScalingMetric,
	proto.MethodCreateSandbox, proto.MethodCreateSandboxBatch,
	proto.MethodSandboxReady, proto.MethodSandboxReadyBatch,
	proto.MethodUpdateEndpoints, proto.MethodUpdateEndpointsBatch,
	proto.MethodAddFunction, "wn.KillSandbox[Batch]", "other",
}

var methodIndexes = func() map[string]int {
	m := map[string]int{proto.MethodKillSandbox: methodKillSandbox, proto.MethodKillSandboxBatch: methodKillSandbox}
	for i, name := range methodNames[:methodKillSandbox] {
		m[name] = i
	}
	return m
}()

func methodIndex(method string) int {
	if i, ok := methodIndexes[method]; ok {
		return i
	}
	return methodOther
}

// recorder is the shared state of one traced run.
type recorder struct {
	mode atomic.Int32
	base time.Time
	mask uint64
	// ring holds the invocation records, indexed by sequence: one for the
	// closed loop, opRingSize for the open one.
	ring  []opRecord
	stats [numTiers][numSides][numMethods]methodStats
	cold  *coldTracker // nil unless the workload cold-starts

	rawMu sync.Mutex
	raw   []rawSpan
}

func newRecorder(ringSize int, mask uint64, cold bool) *recorder {
	r := &recorder{base: time.Now(), mask: mask, ring: make([]opRecord, ringSize)}
	if cold {
		r.cold = newColdTracker()
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// slot returns the record an ID maps to, whether or not it is claimed.
func (r *recorder) slot(id uint64) *opRecord {
	return &r.ring[(id^r.mask)%uint64(len(r.ring))]
}

// lookup returns the claimed record of a live invocation, or nil.
func (r *recorder) lookup(id uint64) *opRecord {
	if s := r.slot(id); s.id.Load() == id {
		return s
	}
	return nil
}

// payloadID reads the request ID from the front of an invocation payload.
func payloadID(p []byte) (uint64, bool) {
	if len(p) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p), true
}

// tracedTransport is the transport one component sees.
type tracedTransport struct {
	inner transport.Transport
	rec   *recorder
	tier  tier
	node  int // index of the component within its tier
}

func (t *tracedTransport) Call(ctx context.Context, addr, method string, payload []byte) ([]byte, error) {
	mode := t.rec.mode.Load()
	if mode == modeOff {
		return t.inner.Call(ctx, addr, method, payload)
	}
	m := methodIndex(method)
	st := &t.rec.stats[t.tier][sideCall][m]
	if mode == modeCount {
		resp, err := t.inner.Call(ctx, addr, method, payload)
		st.calls.Add(1)
		st.bytes.Add(int64(len(payload) + len(resp)))
		return resp, err
	}
	start := t.rec.now()
	resp, err := t.inner.Call(ctx, addr, method, payload)
	s := span{start, t.rec.now()}
	st.calls.Add(1)
	st.bytes.Add(int64(len(payload) + len(resp)))
	st.dur.add(s.dur())
	t.rec.observe(t, sideCall, m, ctx, payload, s)
	return resp, err
}

func (t *tracedTransport) Listen(addr string, h transport.HandlerFunc) (transport.Listener, error) {
	return t.inner.Listen(addr, func(method string, payload []byte) ([]byte, error) {
		mode := t.rec.mode.Load()
		if mode == modeOff {
			return h(method, payload)
		}
		m := methodIndex(method)
		st := &t.rec.stats[t.tier][sideHandle][m]
		if mode == modeCount {
			st.calls.Add(1)
			return h(method, payload)
		}
		start := t.rec.now()
		resp, err := h(method, payload)
		s := span{start, t.rec.now()}
		st.calls.Add(1)
		st.dur.add(s.dur())
		t.rec.observe(t, sideHandle, m, nil, payload, s)
		return resp, err
	})
}

// observe files one closed span under the invocation or cold start it
// belongs to. Payloads are decoded with the program's own proto package,
// never by offset, so the trace follows the wire format when it changes.
func (r *recorder) observe(t *tracedTransport, sd side, m int, ctx context.Context, payload []byte, s span) {
	switch {
	case m == methodInvoke && sd == sideCall:
		// The front end calls on the generator's goroutine, which put
		// the record in the context.
		if op, _ := ctx.Value(opKey{}).(*opRecord); op != nil {
			op.feCall.set(s)
		}
	case m == methodInvoke:
		if req, err := proto.UnmarshalInvokeRequest(payload); err == nil {
			if id, ok := payloadID(req.Payload); ok {
				if op := r.lookup(id); op != nil {
					op.dpHandle.set(s)
					op.dpNode.Store(int32(t.node))
				}
			}
		}
	case m == methodInvokeSandbox:
		if req, err := proto.UnmarshalInvokeSandboxRequest(payload); err == nil {
			if id, ok := payloadID(req.Payload); ok {
				if op := r.lookup(id); op != nil {
					if sd == sideCall {
						op.dpCall.set(s)
					} else {
						op.wnHandle.set(s)
					}
				}
			}
		}
	case r.cold != nil:
		r.cold.observe(t, sd, m, payload, s)
	}
}

// wrapHandler times the function body, the innermost span of an
// invocation.
func (r *recorder) wrapHandler(h worker.Handler) worker.Handler {
	return func(p []byte) ([]byte, error) {
		if r.mode.Load() != modeFull {
			return h(p)
		}
		start := r.now()
		resp, err := h(p)
		s := span{start, r.now()}
		if id, ok := payloadID(p); ok {
			if op := r.lookup(id); op != nil {
				op.user.set(s)
			}
		}
		return resp, err
	}
}

// rawSpan is one line of the span file.
type rawSpan struct {
	Name    string `json:"name"`
	Tier    string `json:"tier"`
	Method  string `json:"method"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
}

// Raw spans are kept for 1 in rawSampleEvery warm invocations and every
// cold start, up to maxRawSpans, and written out when the run ends.
const (
	rawSampleEvery = 64
	maxRawSpans    = 60000
)

func (r *recorder) keepRaw(spans ...rawSpan) {
	r.rawMu.Lock()
	if len(r.raw)+len(spans) <= maxRawSpans {
		r.raw = append(r.raw, spans...)
	}
	r.rawMu.Unlock()
}

// invokeFold holds the invoke-path histograms (the open loop's
// invocations finish on goroutines of their own, hence the mutex).
type invokeFold struct {
	mu                                              sync.Mutex
	latency, feSelf, dpSelf, wnSelf, hop, queueWait hist
	joined, unjoined                                int64
}

// folded says where a finished invocation waited in its data plane: which
// replica served it, when it arrived there and when it was proxied to the
// worker. ok is false when a span is missing: the invocation failed or
// was retried on another replica.
type folded struct {
	node            int
	arrive, proxied int64
	ok              bool
}

// foldOp releases one finished invocation's record and turns its spans
// into self times: each tier's handler span minus the call it made, and
// per hop the caller's span minus the callee's. The five parts add up to
// the client's latency.
func (r *recorder) foldOp(f *invokeFold, op *opRecord, whole span, reqID uint64, sampled bool) folded {
	feCall, dpHandle, dpCall := op.feCall.get(), op.dpHandle.get(), op.dpCall.get()
	wnHandle, user := op.wnHandle.get(), op.user.get()
	node := int(op.dpNode.Load())
	op.id.Store(0)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range []span{feCall, dpHandle, dpCall, wnHandle, user} {
		if s.end == 0 {
			f.unjoined++
			return folded{}
		}
	}
	f.joined++
	f.latency.add(whole.dur())
	f.feSelf.add(selfTime(whole, feCall))
	f.dpSelf.add(selfTime(dpHandle, dpCall))
	f.wnSelf.add(selfTime(wnHandle, user))
	f.hop.add(selfTime(feCall, dpHandle))
	f.hop.add(selfTime(dpCall, wnHandle))
	f.queueWait.add(dpCall.start - dpHandle.start)
	if sampled {
		id := fmt.Sprintf("%016x", reqID)
		mk := func(name, tierName, method string, s span, parent string) rawSpan {
			return rawSpan{Name: name, Tier: tierName, Method: method, StartNs: s.start, EndNs: s.end, ID: id, Parent: parent}
		}
		r.keepRaw(
			mk("invoke", "client", "lb.Invoke", whole, ""),
			mk("frontend.call", "frontend", proto.MethodInvoke, feCall, "invoke"),
			mk("dataplane.handle", "dataplane", proto.MethodInvoke, dpHandle, "frontend.call"),
			mk("dataplane.call", "dataplane", proto.MethodInvokeSandbox, dpCall, "dataplane.handle"),
			mk("worker.handle", "worker", proto.MethodInvokeSandbox, wnHandle, "dataplane.call"),
			mk("function", "worker", "handler", user, "worker.handle"),
		)
	}
	return folded{node: node, arrive: dpHandle.start, proxied: dpCall.start, ok: true}
}
