// Package proto defines the wire messages of the Dirigent API (paper
// Table 2). The bold client-facing operations are RegisterFunction,
// DeregisterFunction (to the control plane) and Invoke (to a data plane);
// the rest are internal calls between control plane (CP), data planes (DP),
// and worker nodes (WN). All messages use the compact binary codec —
// Dirigent's answer to the 17 KB YAML objects K8s serializes per update.
package proto

import (
	"fmt"
	"time"

	"dirigent/internal/codec"
	"dirigent/internal/core"
)

// RPC method names. The prefix identifies the callee component.
const (
	// Client → CP.
	MethodRegisterFunction   = "cp.RegisterFunction"
	MethodDeregisterFunction = "cp.DeregisterFunction"
	// Client → DP (via front-end load balancer).
	MethodInvoke = "dp.Invoke"
	// DP → CP.
	MethodRegisterDataPlane   = "cp.RegisterDataPlane"
	MethodDeregisterDataPlane = "cp.DeregisterDataPlane"
	MethodListFunctions       = "cp.ListFunctions"
	MethodScalingMetric       = "cp.ScalingMetric"
	MethodDataPlaneHeartbeat  = "cp.DataPlaneHeartbeat"
	// MethodListDataPlanes returns the live (heartbeat-fresh) data plane
	// replica set; the front-end load balancer polls it to keep its
	// membership in sync as replicas come and go.
	MethodListDataPlanes = "cp.ListDataPlanes"
	// CP → DP. Function metadata travels as one of three calls, sent in
	// registry order under one control-plane mutex.
	//
	// MethodAddFunction is the registration delta: a FunctionList whose
	// entries the data plane upserts, leaving unlisted functions alone.
	MethodAddFunction = "dp.AddFunction"
	// MethodRemoveFunction is the deregistration delta: one marshaled
	// core.Function whose runtime, endpoints and queue the data plane drops.
	MethodRemoveFunction = "dp.RemoveFunction"
	// MethodSyncFunctions carries the whole registry as a FunctionList and
	// replaces the data plane's function set with it, dropping unlisted
	// functions. It is sent on admission and revival, after leader
	// recovery, and to repair a data plane whose delta call failed.
	MethodSyncFunctions = "dp.SyncFunctions"
	// MethodUpdateEndpointsBatch carries the endpoint set of every function
	// one control-plane event touched (a sweep, a readiness report, a
	// worker failure) in a single RPC per data plane.
	MethodUpdateEndpointsBatch = "dp.UpdateEndpointsBatch"
	// MethodAsyncLeaseGrant leases a dead replica's durable async queue
	// hashes to a surviving replica at an epoch; the lessee drains the
	// dead owner's records through its own dispatch loops, fencing every
	// settlement with the epoch.
	MethodAsyncLeaseGrant = "dp.AsyncLeaseGrant"
	// MethodAsyncLeaseRevoke retracts outstanding leases on an owner's
	// hashes (the owner revived at a newer epoch); lessees stop draining
	// and drop still-queued leased tasks without executing them.
	MethodAsyncLeaseRevoke = "dp.AsyncLeaseRevoke"
	// CP → WN.
	// MethodCreateSandboxBatch carries every placement decision an
	// autoscale sweep made for one worker in a single RPC, amortizing
	// per-call transport and handler cost across a burst of cold starts.
	MethodCreateSandboxBatch = "wn.CreateSandboxBatch"
	// MethodKillSandboxBatch carries every teardown an autoscale
	// scale-down (or function deregistration) assigned to one worker in a
	// single RPC, mirroring MethodCreateSandboxBatch on the way down.
	MethodKillSandboxBatch = "wn.KillSandboxBatch"
	MethodListSandboxes    = "wn.ListSandboxes"
	// WN → CP.
	MethodRegisterWorker   = "cp.RegisterWorker"
	MethodDeregisterWorker = "cp.DeregisterWorker"
	MethodWorkerHeartbeat  = "cp.WorkerHeartbeat"
	// MethodSandboxReadyBatch reports every sandbox that became ready
	// while the worker's previous readiness RPC was in flight, so a burst
	// of creations costs O(RPCs in flight) instead of O(sandboxes).
	MethodSandboxReadyBatch = "cp.SandboxReadyBatch"
	MethodSandboxCrashed    = "cp.SandboxCrashed"
	// Relay → CP (hierarchical liveness tier). Workers report liveness to
	// a relay with the ordinary per-worker methods above; each relay ships
	// one aggregated RPC per flush period, so the control plane absorbs
	// O(relays) liveness calls per period instead of O(workers).
	// MethodWorkerHeartbeatBatch carries every worker sample a relay
	// absorbed since its last flush, plus the workers it stopped hearing
	// from (early failure hints the CP verifies against its own stamps).
	MethodWorkerHeartbeatBatch = "cp.WorkerHeartbeatBatch"
	// MethodRegisterWorkerBatch group-commits a registration storm: every
	// worker that asked its relay to register while the relay's previous
	// registration RPC was in flight shares one CP round trip.
	MethodRegisterWorkerBatch = "cp.RegisterWorkerBatch"
	// CP ↔ CP (leader election + log replication).
	MethodRequestVote = "cp.RequestVote"
	// MethodAppendEntries ships pipelined, group-committed batches of
	// replicated store ops from the CP leader to followers; an empty
	// batch doubles as the leader heartbeat and carries the commit index.
	MethodAppendEntries = "cp.AppendEntries"
	MethodClusterStatus = "cp.ClusterStatus"
)

// Retired: never sent, answered with unknown-method. A batch of one is the
// singleton; the names remain because the benchmark's trace labels use them.
const (
	MethodCreateSandbox   = "wn.CreateSandbox"
	MethodKillSandbox     = "wn.KillSandbox"
	MethodSandboxReady    = "cp.SandboxReady"
	MethodUpdateEndpoints = "dp.UpdateEndpoints"
)

// InvokeRequest carries one function invocation through the data plane.
type InvokeRequest struct {
	Function string
	// Async selects the asynchronous invocation mode (paper §3.3): the
	// request is durably queued and retried on timeout (at-least-once).
	Async bool
	// Payload is the opaque request body forwarded to the sandbox.
	Payload []byte
}

// Marshal encodes the request into a buffer of its own.
func (m *InvokeRequest) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, 16+len(m.Function)+len(m.Payload)))
}

// AppendTo appends the encoded request to dst and returns the extended
// buffer, so a caller can encode into one it reuses.
func (m *InvokeRequest) AppendTo(dst []byte) []byte {
	var e codec.Encoder
	e.Extend(dst)
	e.String(m.Function)
	e.Bool(m.Async)
	e.RawBytes(m.Payload)
	return e.Bytes()
}

// UnmarshalInvokeRequest decodes an InvokeRequest. Payload aliases b.
func UnmarshalInvokeRequest(b []byte) (*InvokeRequest, error) {
	function, async, payload, err := DecodeInvokeRequest(b)
	return &InvokeRequest{Function: string(function), Async: async, Payload: payload}, err
}

// DecodeInvokeRequest decodes an InvokeRequest in place and allocates
// nothing: function and payload alias b. A caller leaves the frame it
// passed to Call unchanged until the call has returned a response (see
// transport.HandlerFunc), so they are safe to read for the whole call; a
// receiver copies what it keeps past the call.
func DecodeInvokeRequest(b []byte) (function []byte, async bool, payload []byte, err error) {
	d := codec.NewDecoder(b)
	function = d.StringBytes()
	async = d.Bool()
	payload = d.RawBytes()
	if err := d.Err(); err != nil {
		return nil, false, nil, wrap(err, "InvokeRequest")
	}
	return function, async, payload, nil
}

// InvokeResponse carries the function result (or async acceptance) back.
type InvokeResponse struct {
	// ColdStart reports whether this invocation had to wait for a sandbox.
	ColdStart bool
	// SchedulingLatencyUs is time spent in the cluster manager (queueing,
	// placement, sandbox wait), i.e. end-to-end minus function execution.
	SchedulingLatencyUs int64
	// Body is the function's response payload (empty for async accept).
	Body []byte
}

// Marshal encodes the response.
func (m *InvokeResponse) Marshal() []byte {
	e := codec.NewEncoder(16 + len(m.Body))
	e.Bool(m.ColdStart)
	e.I64(m.SchedulingLatencyUs)
	e.RawBytes(m.Body)
	return e.Bytes()
}

// UnmarshalInvokeResponse decodes an InvokeResponse. Body aliases b, as
// DecodeInvokeRequest's payload does.
func UnmarshalInvokeResponse(b []byte) (*InvokeResponse, error) {
	d := codec.NewDecoder(b)
	m := &InvokeResponse{}
	m.ColdStart = d.Bool()
	m.SchedulingLatencyUs = d.I64()
	m.Body = d.RawBytes()
	return m, wrap(d.Err(), "InvokeResponse")
}

// CreateSandboxRequest instructs a worker to spin up a sandbox.
type CreateSandboxRequest struct {
	SandboxID core.SandboxID
	Function  core.Function
}

// Marshal encodes the request.
func (m *CreateSandboxRequest) Marshal() []byte {
	e := codec.NewEncoder(96)
	e.U64(uint64(m.SandboxID))
	e.RawBytes(core.MarshalFunction(&m.Function))
	return e.Bytes()
}

// UnmarshalCreateSandboxRequest decodes a CreateSandboxRequest.
func UnmarshalCreateSandboxRequest(b []byte) (*CreateSandboxRequest, error) {
	d := codec.NewDecoder(b)
	m := &CreateSandboxRequest{}
	m.SandboxID = core.SandboxID(d.U64())
	fb := d.RawBytes()
	if err := d.Err(); err != nil {
		return nil, wrap(err, "CreateSandboxRequest")
	}
	f, err := core.UnmarshalFunction(fb)
	if err != nil {
		return nil, wrap(err, "CreateSandboxRequest")
	}
	m.Function = *f
	return m, nil
}

// CreateSandboxBatch instructs a worker to spin up several sandboxes in
// one RPC: all the placement decisions one autoscale sweep assigned to
// that worker (paper §3.3 batches scheduling decisions; this is what
// keeps the cold-start control path O(workers), not O(sandboxes)).
type CreateSandboxBatch struct {
	Creates []CreateSandboxRequest
}

// Marshal encodes the batch.
func (m *CreateSandboxBatch) Marshal() []byte {
	e := codec.NewEncoder(16 + 112*len(m.Creates))
	e.U32(uint32(len(m.Creates)))
	for i := range m.Creates {
		e.RawBytes(m.Creates[i].Marshal())
	}
	return e.Bytes()
}

// UnmarshalCreateSandboxBatch decodes a CreateSandboxBatch.
func UnmarshalCreateSandboxBatch(b []byte) (*CreateSandboxBatch, error) {
	d := codec.NewDecoder(b)
	n := int(d.U32())
	m := &CreateSandboxBatch{}
	for i := 0; i < n && d.Err() == nil; i++ {
		rb := d.RawBytes()
		if d.Err() != nil {
			break
		}
		req, err := UnmarshalCreateSandboxRequest(rb)
		if err != nil {
			return nil, wrap(err, "CreateSandboxBatch")
		}
		m.Creates = append(m.Creates, *req)
	}
	return m, wrap(d.Err(), "CreateSandboxBatch")
}

// SandboxInfo describes one sandbox in worker reports and endpoint updates.
type SandboxInfo struct {
	ID       core.SandboxID
	Function string
	Node     core.NodeID
	Addr     string
	State    core.SandboxState
}

func (m *SandboxInfo) encode(e *codec.Encoder) {
	e.U64(uint64(m.ID))
	e.String(m.Function)
	e.U16(uint16(m.Node))
	e.String(m.Addr)
	e.U8(uint8(m.State))
}

func decodeSandboxInfo(d *codec.Decoder) SandboxInfo {
	return decodeEndpointView(d).info()
}

// EndpointView is one SandboxInfo decoded in place: Function and Addr
// alias the payload and are valid only while the payload is.
type EndpointView struct {
	ID       core.SandboxID
	Function []byte
	Node     core.NodeID
	Addr     []byte
	State    core.SandboxState
}

func decodeEndpointView(d *codec.Decoder) EndpointView {
	var v EndpointView
	v.ID = core.SandboxID(d.U64())
	v.Function = d.StringBytes()
	v.Node = core.NodeID(d.U16())
	v.Addr = d.StringBytes()
	v.State = core.SandboxState(d.U8())
	return v
}

// info copies the view out of the payload.
func (v EndpointView) info() SandboxInfo {
	return SandboxInfo{ID: v.ID, Function: string(v.Function), Node: v.Node, Addr: string(v.Addr), State: v.State}
}

// SandboxList is a list of sandboxes: the ListSandboxes response and the
// recovery report a worker sends after a control-plane failover.
type SandboxList struct {
	Sandboxes []SandboxInfo
}

// Marshal encodes the list.
func (m *SandboxList) Marshal() []byte {
	e := codec.NewEncoder(16 + 48*len(m.Sandboxes))
	e.U32(uint32(len(m.Sandboxes)))
	for i := range m.Sandboxes {
		m.Sandboxes[i].encode(e)
	}
	return e.Bytes()
}

// UnmarshalSandboxList decodes a SandboxList.
func UnmarshalSandboxList(b []byte) (*SandboxList, error) {
	d := codec.NewDecoder(b)
	n := int(d.U32())
	m := &SandboxList{}
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Sandboxes = append(m.Sandboxes, decodeSandboxInfo(d))
	}
	return m, wrap(d.Err(), "SandboxList")
}

// EndpointUpdate is the CP → DP broadcast refreshing a function's ready
// endpoints (paper Table 2, "Add/remove LB endpoint"). Updates carry the
// full endpoint list plus a monotonically increasing version (leadership
// epoch in the high bits, per-function sequence in the low bits) so that
// data planes can discard broadcasts that arrive out of order.
type EndpointUpdate struct {
	Function  string
	Version   uint64
	Endpoints []SandboxInfo
}

// Marshal encodes the update: the body of a batch of one, without the
// batch's update count and the update's length prefix.
func (m *EndpointUpdate) Marshal() []byte {
	var w EndpointBatchWriter
	w.Reset(make([]byte, 0, 48+48*len(m.Endpoints)))
	w.add(m)
	return w.Bytes()[8:]
}

// UnmarshalEndpointUpdate decodes an EndpointUpdate.
func UnmarshalEndpointUpdate(b []byte) (*EndpointUpdate, error) {
	if err := walkEndpointUpdate(b, nil); err != nil {
		return nil, wrap(err, "EndpointUpdate")
	}
	m := &EndpointUpdate{}
	_ = walkEndpointUpdate(b, func(function []byte, version uint64, endpoints EndpointViews) {
		*m = endpointUpdateOf(function, version, endpoints)
	})
	return m, nil
}

// EndpointUpdateBatch carries one endpoint diff per changed function,
// all in a single CP → DP RPC. Each inner update keeps its own version,
// so per-function reordering protection is unchanged.
type EndpointUpdateBatch struct {
	Updates []EndpointUpdate
}

// Marshal encodes the batch.
func (m *EndpointUpdateBatch) Marshal() []byte {
	var w EndpointBatchWriter
	w.Reset(make([]byte, 0, 16+96*len(m.Updates)))
	for i := range m.Updates {
		w.add(&m.Updates[i])
	}
	return w.Bytes()
}

// UnmarshalEndpointUpdateBatch decodes an EndpointUpdateBatch.
func UnmarshalEndpointUpdateBatch(b []byte) (*EndpointUpdateBatch, error) {
	m := &EndpointUpdateBatch{}
	err := VisitEndpointUpdateBatch(b, func(function []byte, version uint64, endpoints EndpointViews) {
		m.Updates = append(m.Updates, endpointUpdateOf(function, version, endpoints))
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

func endpointUpdateOf(function []byte, version uint64, endpoints EndpointViews) EndpointUpdate {
	m := EndpointUpdate{Function: string(function), Version: version}
	if endpoints.Len() > 0 {
		m.Endpoints = make([]SandboxInfo, 0, endpoints.Len())
	}
	for v, ok := endpoints.Next(); ok; v, ok = endpoints.Next() {
		m.Endpoints = append(m.Endpoints, v.info())
	}
	return m
}

// EndpointBatchWriter appends an EndpointUpdateBatch to a buffer its
// caller owns, one update at a time, and writes exactly the bytes
// EndpointUpdateBatch.Marshal does. The batch's update count and each
// update's length prefix and endpoint count are written in place once
// known, so no update is built, or marshaled, on its own first. Open an
// update with BeginUpdate, add its endpoints with Endpoint, and close it
// with EndUpdate before the next one or Bytes.
type EndpointBatchWriter struct {
	e       codec.Encoder
	updates uint32
	start   int // offset of the open update's length prefix
	count   int // offset of the open update's endpoint count
	eps     uint32
}

// Reset starts an empty batch in buf[:0].
func (w *EndpointBatchWriter) Reset(buf []byte) {
	w.e.Extend(buf[:0])
	w.e.U32(0)
	w.updates = 0
}

// BeginUpdate opens the update of function at version.
func (w *EndpointBatchWriter) BeginUpdate(function string, version uint64) {
	w.start = w.e.Len()
	w.e.U32(0)
	w.e.String(function)
	w.e.U64(version)
	w.count = w.e.Len()
	w.e.U32(0)
	w.eps = 0
}

// Endpoint adds one endpoint to the open update.
func (w *EndpointBatchWriter) Endpoint(info *SandboxInfo) {
	info.encode(&w.e)
	w.eps++
}

// EndUpdate closes the open update.
func (w *EndpointBatchWriter) EndUpdate() {
	w.e.PutU32At(w.count, w.eps)
	w.e.PutU32At(w.start, uint32(w.e.Len()-w.start-4))
	w.updates++
	w.e.PutU32At(0, w.updates)
}

// Updates reports how many updates the batch holds.
func (w *EndpointBatchWriter) Updates() int { return int(w.updates) }

// Bytes returns the batch, which aliases the buffer given to Reset.
func (w *EndpointBatchWriter) Bytes() []byte { return w.e.Bytes() }

func (w *EndpointBatchWriter) add(m *EndpointUpdate) {
	w.BeginUpdate(m.Function, m.Version)
	for i := range m.Endpoints {
		w.Endpoint(&m.Endpoints[i])
	}
	w.EndUpdate()
}

// EndpointViews iterates one update's endpoints in place.
type EndpointViews struct {
	d codec.Decoder
	n int
}

// Len reports how many endpoints Next has yet to return.
func (v *EndpointViews) Len() int { return v.n }

// Next returns the next endpoint, or false after the last.
func (v *EndpointViews) Next() (EndpointView, bool) {
	if v.n == 0 {
		return EndpointView{}, false
	}
	v.n--
	return decodeEndpointView(&v.d), true
}

// VisitEndpointUpdateBatch decodes a marshaled EndpointUpdateBatch in
// place, calling visit once per update with its function, version and
// endpoints. function and the endpoints' byte fields alias b and are
// valid only during the call, so a receiver that keeps no copy of them
// decodes a batch without allocating. The framing of the whole payload is
// checked before the first call, and a payload with bytes left over is
// refused: a malformed batch is refused whole.
func VisitEndpointUpdateBatch(b []byte, visit func(function []byte, version uint64, endpoints EndpointViews)) error {
	if err := walkEndpointUpdateBatch(b, nil); err != nil {
		return err
	}
	return walkEndpointUpdateBatch(b, visit)
}

// walkEndpointUpdateBatch checks the batch's framing when visit is nil
// and visits every update of a checked batch otherwise.
func walkEndpointUpdateBatch(b []byte, visit func(function []byte, version uint64, endpoints EndpointViews)) error {
	d := codec.NewDecoder(b)
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		body := d.RawBytes()
		if d.Err() != nil {
			break
		}
		if err := walkEndpointUpdate(body, visit); err != nil {
			return wrap(err, "EndpointUpdateBatch")
		}
	}
	return wrap(d.End(), "EndpointUpdateBatch")
}

// walkEndpointUpdate is walkEndpointUpdateBatch for one update's body.
func walkEndpointUpdate(b []byte, visit func(function []byte, version uint64, endpoints EndpointViews)) error {
	d := codec.NewDecoder(b)
	function, version := d.StringBytes(), d.U64()
	endpoints := EndpointViews{n: int(d.U32())}
	endpoints.d = *d
	if visit != nil {
		visit(function, version, endpoints)
		return nil
	}
	for i := 0; i < endpoints.n && d.Err() == nil; i++ {
		decodeEndpointView(d)
	}
	return d.End()
}

// ScalingMetricReport batches per-function scaling metrics from a DP.
type ScalingMetricReport struct {
	DataPlane core.DataPlaneID
	Metrics   []core.ScalingMetric
}

// Marshal encodes the report into a buffer of its own.
func (m *ScalingMetricReport) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, 16+32*len(m.Metrics)))
}

// AppendTo appends the encoded report to dst and returns the extended
// buffer, so a caller can encode into one it reuses.
func (m *ScalingMetricReport) AppendTo(dst []byte) []byte {
	var e codec.Encoder
	e.Extend(dst)
	e.U16(uint16(m.DataPlane))
	e.U32(uint32(len(m.Metrics)))
	for i := range m.Metrics {
		mm := &m.Metrics[i]
		e.String(mm.Function)
		e.I64(int64(mm.InFlight))
		e.I64(int64(mm.QueueDepth))
		e.I64(mm.At.UnixNano())
	}
	return e.Bytes()
}

// UnmarshalScalingMetricReport decodes a ScalingMetricReport.
func UnmarshalScalingMetricReport(b []byte) (*ScalingMetricReport, error) {
	m := &ScalingMetricReport{}
	var err error
	m.DataPlane, err = VisitScalingMetricReport(b, func(_ core.DataPlaneID, function []byte, inFlight, queueDepth int, at time.Time) {
		m.Metrics = append(m.Metrics, core.ScalingMetric{
			Function: string(function), InFlight: inFlight, QueueDepth: queueDepth, At: at,
		})
	})
	return m, err
}

// VisitScalingMetricReport decodes a marshaled ScalingMetricReport in
// place, calling visit once per metric with the reporting data plane (the
// report's first field). function aliases b and is valid only during the
// call, so a receiver that needs no string (the control plane keys its
// shard map lookup on the bytes) decodes a report of any size without
// allocating. The framing of the whole payload is checked before the
// first call: a malformed report is refused whole.
func VisitScalingMetricReport(b []byte, visit func(dp core.DataPlaneID, function []byte, inFlight, queueDepth int, at time.Time)) (core.DataPlaneID, error) {
	if _, err := walkScalingMetricReport(b, nil); err != nil {
		return 0, err
	}
	return walkScalingMetricReport(b, visit)
}

func walkScalingMetricReport(b []byte, visit func(dp core.DataPlaneID, function []byte, inFlight, queueDepth int, at time.Time)) (core.DataPlaneID, error) {
	d := codec.NewDecoder(b)
	id := core.DataPlaneID(d.U16())
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		function := d.StringBytes()
		inFlight, queueDepth, at := int(d.I64()), int(d.I64()), d.I64()
		if visit != nil && d.Err() == nil {
			visit(id, function, inFlight, queueDepth, time.Unix(0, at))
		}
	}
	return id, wrap(d.Err(), "ScalingMetricReport")
}

// WorkerHeartbeat is the WN → CP liveness and utilization signal.
type WorkerHeartbeat struct {
	Node core.NodeID
	Util core.NodeUtilization
}

// Marshal encodes the heartbeat. The trailing cache digest (sorted image
// hashes, see core.NodeUtilization) feeds cache-locality-aware placement;
// it also rides relay heartbeat batches unchanged, since the batch nests
// whole marshaled heartbeats.
func (m *WorkerHeartbeat) Marshal() []byte {
	e := codec.NewEncoder(48 + 8*len(m.Util.CacheDigest))
	e.U16(uint16(m.Node))
	e.I64(int64(m.Util.CPUMilliUsed))
	e.I64(int64(m.Util.MemoryMBUsed))
	e.I64(int64(m.Util.SandboxCount))
	e.I64(int64(m.Util.CreationQueue))
	e.U32(uint32(len(m.Util.CacheDigest)))
	for _, h := range m.Util.CacheDigest {
		e.U64(h)
	}
	return e.Bytes()
}

// UnmarshalWorkerHeartbeat decodes a WorkerHeartbeat.
func UnmarshalWorkerHeartbeat(b []byte) (*WorkerHeartbeat, error) {
	d := codec.NewDecoder(b)
	m := &WorkerHeartbeat{}
	m.Node = core.NodeID(d.U16())
	m.Util.Node = m.Node
	m.Util.CPUMilliUsed = int(d.I64())
	m.Util.MemoryMBUsed = int(d.I64())
	m.Util.SandboxCount = int(d.I64())
	m.Util.CreationQueue = int(d.I64())
	for n := int(d.U32()); n > 0 && d.Err() == nil; n-- {
		m.Util.CacheDigest = append(m.Util.CacheDigest, d.U64())
	}
	return m, wrap(d.Err(), "WorkerHeartbeat")
}

// RegisterWorkerRequest announces a worker node to the control plane.
type RegisterWorkerRequest struct {
	Worker core.WorkerNode
}

// Marshal encodes the request.
func (m *RegisterWorkerRequest) Marshal() []byte {
	return core.MarshalWorkerNode(&m.Worker)
}

// UnmarshalRegisterWorkerRequest decodes a RegisterWorkerRequest.
func UnmarshalRegisterWorkerRequest(b []byte) (*RegisterWorkerRequest, error) {
	w, err := core.UnmarshalWorkerNode(b)
	if err != nil {
		return nil, wrap(err, "RegisterWorkerRequest")
	}
	return &RegisterWorkerRequest{Worker: *w}, nil
}

// WorkerHeartbeatBatch is one relay flush: the latest liveness and
// utilization sample of every worker that reported to the relay since its
// previous flush, plus the node IDs the relay has stopped hearing from
// (Missing). The relay's own clock is deliberately absent — the control
// plane stamps every carried sample with the batch's arrival time, so
// liveness judgment never trusts a relay-side timestamp.
type WorkerHeartbeatBatch struct {
	// Relay identifies the sending relay (its RPC address); the control
	// plane tracks relay freshness under this key to turn a silent relay
	// into a correlated mass-timeout check rather than a mystery.
	Relay string
	// Missing lists workers that registered with this relay but have been
	// silent past the relay's miss threshold — an early hint the CP
	// verifies against its own per-worker stamps before failing anyone.
	Missing []core.NodeID
	// Beats are the aggregated per-worker samples.
	Beats []WorkerHeartbeat
}

// Marshal encodes the batch.
func (m *WorkerHeartbeatBatch) Marshal() []byte {
	e := codec.NewEncoder(16 + len(m.Relay) + 2*len(m.Missing) + 48*len(m.Beats))
	e.String(m.Relay)
	e.U32(uint32(len(m.Missing)))
	for _, id := range m.Missing {
		e.U16(uint16(id))
	}
	e.U32(uint32(len(m.Beats)))
	for i := range m.Beats {
		e.RawBytes(m.Beats[i].Marshal())
	}
	return e.Bytes()
}

// UnmarshalWorkerHeartbeatBatch decodes a WorkerHeartbeatBatch.
func UnmarshalWorkerHeartbeatBatch(b []byte) (*WorkerHeartbeatBatch, error) {
	d := codec.NewDecoder(b)
	m := &WorkerHeartbeatBatch{}
	m.Relay = d.String()
	nm := int(d.U32())
	for i := 0; i < nm && d.Err() == nil; i++ {
		m.Missing = append(m.Missing, core.NodeID(d.U16()))
	}
	nb := int(d.U32())
	for i := 0; i < nb && d.Err() == nil; i++ {
		rb := d.RawBytes()
		if d.Err() != nil {
			break
		}
		hb, err := UnmarshalWorkerHeartbeat(rb)
		if err != nil {
			return nil, wrap(err, "WorkerHeartbeatBatch")
		}
		m.Beats = append(m.Beats, *hb)
	}
	return m, wrap(d.Err(), "WorkerHeartbeatBatch")
}

// RegisterWorkerBatch group-commits a registration storm through a relay:
// every worker announcement the relay accumulated while its previous
// registration RPC was in flight, in one CP round trip.
type RegisterWorkerBatch struct {
	// Relay identifies the sending relay (its RPC address).
	Relay string
	// Workers are the announced worker nodes.
	Workers []core.WorkerNode
}

// Marshal encodes the batch.
func (m *RegisterWorkerBatch) Marshal() []byte {
	e := codec.NewEncoder(16 + len(m.Relay) + 64*len(m.Workers))
	e.String(m.Relay)
	e.U32(uint32(len(m.Workers)))
	for i := range m.Workers {
		e.RawBytes(core.MarshalWorkerNode(&m.Workers[i]))
	}
	return e.Bytes()
}

// UnmarshalRegisterWorkerBatch decodes a RegisterWorkerBatch.
func UnmarshalRegisterWorkerBatch(b []byte) (*RegisterWorkerBatch, error) {
	d := codec.NewDecoder(b)
	m := &RegisterWorkerBatch{}
	m.Relay = d.String()
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		rb := d.RawBytes()
		if d.Err() != nil {
			break
		}
		w, err := core.UnmarshalWorkerNode(rb)
		if err != nil {
			return nil, wrap(err, "RegisterWorkerBatch")
		}
		m.Workers = append(m.Workers, *w)
	}
	return m, wrap(d.Err(), "RegisterWorkerBatch")
}

// RegisterDataPlaneRequest announces a data plane replica to the CP.
// Durable replicas also advertise the store hashes their async queue
// writes, so the control plane knows what to lease to survivors if this
// replica is later pruned.
type RegisterDataPlaneRequest struct {
	DataPlane   core.DataPlane
	Durable     bool     // replica persists async tasks to a store
	AsyncHashes []string // store hashes holding this replica's async records
}

// Marshal encodes the request.
func (m *RegisterDataPlaneRequest) Marshal() []byte {
	e := codec.NewEncoder(48 + 16*len(m.AsyncHashes))
	e.RawBytes(core.MarshalDataPlane(&m.DataPlane))
	e.Bool(m.Durable)
	e.U32(uint32(len(m.AsyncHashes)))
	for _, h := range m.AsyncHashes {
		e.String(h)
	}
	return e.Bytes()
}

// UnmarshalRegisterDataPlaneRequest decodes a RegisterDataPlaneRequest.
func UnmarshalRegisterDataPlaneRequest(b []byte) (*RegisterDataPlaneRequest, error) {
	d := codec.NewDecoder(b)
	m := &RegisterDataPlaneRequest{}
	pb := d.RawBytes()
	if d.Err() != nil {
		return nil, wrap(d.Err(), "RegisterDataPlaneRequest")
	}
	p, err := core.UnmarshalDataPlane(pb)
	if err != nil {
		return nil, wrap(err, "RegisterDataPlaneRequest")
	}
	m.DataPlane = *p
	m.Durable = d.Bool()
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		m.AsyncHashes = append(m.AsyncHashes, d.String())
	}
	return m, wrap(d.Err(), "RegisterDataPlaneRequest")
}

// DataPlaneEpochAck is the CP's reply to a data plane registration or
// heartbeat: the queue epoch assigned to the replica. The replica adopts
// the maximum epoch it has seen, bumping its settlement fence, so a
// revived replica re-admitted at a newer epoch out-fences any lessee
// still draining its records at an older one.
type DataPlaneEpochAck struct {
	Epoch uint64
}

// Marshal encodes the ack.
func (m *DataPlaneEpochAck) Marshal() []byte {
	e := codec.NewEncoder(8)
	e.U64(m.Epoch)
	return e.Bytes()
}

// UnmarshalDataPlaneEpochAck decodes a DataPlaneEpochAck. An empty
// payload (a control plane predating queue epochs) decodes as epoch 0,
// which replicas treat as "no epoch assigned".
func UnmarshalDataPlaneEpochAck(b []byte) (*DataPlaneEpochAck, error) {
	if len(b) == 0 {
		return &DataPlaneEpochAck{}, nil
	}
	d := codec.NewDecoder(b)
	m := &DataPlaneEpochAck{Epoch: d.U64()}
	return m, wrap(d.Err(), "DataPlaneEpochAck")
}

// AsyncLease grants the receiving replica the right to drain a dead
// owner's async records from the listed store hashes at the given epoch.
// All settlements under the lease are fenced by the epoch: if the owner
// revives (or the lease is re-issued elsewhere) at a newer epoch, the
// store rejects this lessee's settles and it abandons the lease.
type AsyncLease struct {
	Owner  core.DataPlaneID
	Epoch  uint64
	Hashes []string
}

// Marshal encodes the lease grant.
func (m *AsyncLease) Marshal() []byte {
	e := codec.NewEncoder(16 + 16*len(m.Hashes))
	e.U16(uint16(m.Owner))
	e.U64(m.Epoch)
	e.U32(uint32(len(m.Hashes)))
	for _, h := range m.Hashes {
		e.String(h)
	}
	return e.Bytes()
}

// UnmarshalAsyncLease decodes an AsyncLease.
func UnmarshalAsyncLease(b []byte) (*AsyncLease, error) {
	d := codec.NewDecoder(b)
	m := &AsyncLease{}
	m.Owner = core.DataPlaneID(d.U16())
	m.Epoch = d.U64()
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Hashes = append(m.Hashes, d.String())
	}
	return m, wrap(d.Err(), "AsyncLease")
}

// AsyncLeaseRevoke retracts every lease on the owner's records older
// than Epoch (the owner's revival epoch). Lessees drop still-queued
// leased tasks without executing them; the records stay durable for the
// revived owner to drain.
type AsyncLeaseRevoke struct {
	Owner core.DataPlaneID
	Epoch uint64
}

// Marshal encodes the revocation.
func (m *AsyncLeaseRevoke) Marshal() []byte {
	e := codec.NewEncoder(10)
	e.U16(uint16(m.Owner))
	e.U64(m.Epoch)
	return e.Bytes()
}

// UnmarshalAsyncLeaseRevoke decodes an AsyncLeaseRevoke.
func UnmarshalAsyncLeaseRevoke(b []byte) (*AsyncLeaseRevoke, error) {
	d := codec.NewDecoder(b)
	m := &AsyncLeaseRevoke{Owner: core.DataPlaneID(d.U16()), Epoch: d.U64()}
	return m, wrap(d.Err(), "AsyncLeaseRevoke")
}

// DataPlaneHeartbeat is the DP → CP liveness signal. It carries the full
// replica identity so a control plane that lost the in-memory registry
// entry (e.g. a heartbeat racing a leadership recovery) can re-admit the
// replica without waiting for it to restart and re-register.
type DataPlaneHeartbeat struct {
	DataPlane core.DataPlane
}

// Marshal encodes the heartbeat.
func (m *DataPlaneHeartbeat) Marshal() []byte {
	return core.MarshalDataPlane(&m.DataPlane)
}

// UnmarshalDataPlaneHeartbeat decodes a DataPlaneHeartbeat.
func UnmarshalDataPlaneHeartbeat(b []byte) (*DataPlaneHeartbeat, error) {
	p, err := core.UnmarshalDataPlane(b)
	if err != nil {
		return nil, wrap(err, "DataPlaneHeartbeat")
	}
	return &DataPlaneHeartbeat{DataPlane: *p}, nil
}

// DataPlaneList is the ListDataPlanes response: the replicas the control
// plane currently considers live (registered and heartbeat-fresh).
type DataPlaneList struct {
	DataPlanes []core.DataPlane
}

// Marshal encodes the list.
func (m *DataPlaneList) Marshal() []byte {
	e := codec.NewEncoder(16 + 24*len(m.DataPlanes))
	e.U32(uint32(len(m.DataPlanes)))
	for i := range m.DataPlanes {
		e.RawBytes(core.MarshalDataPlane(&m.DataPlanes[i]))
	}
	return e.Bytes()
}

// UnmarshalDataPlaneList decodes a DataPlaneList.
func UnmarshalDataPlaneList(b []byte) (*DataPlaneList, error) {
	d := codec.NewDecoder(b)
	n := int(d.U32())
	m := &DataPlaneList{}
	for i := 0; i < n && d.Err() == nil; i++ {
		pb := d.RawBytes()
		if d.Err() != nil {
			break
		}
		p, err := core.UnmarshalDataPlane(pb)
		if err != nil {
			return nil, wrap(err, "DataPlaneList")
		}
		m.DataPlanes = append(m.DataPlanes, *p)
	}
	return m, wrap(d.Err(), "DataPlaneList")
}

// KillSandboxBatch instructs a worker to tear down several sandboxes in
// one RPC: every teardown one autoscale scale-down assigned to that
// worker, the downscale mirror of CreateSandboxBatch.
type KillSandboxBatch struct {
	IDs []core.SandboxID
}

// Marshal encodes the batch.
func (m *KillSandboxBatch) Marshal() []byte {
	e := codec.NewEncoder(16 + 8*len(m.IDs))
	e.U32(uint32(len(m.IDs)))
	for _, id := range m.IDs {
		e.U64(uint64(id))
	}
	return e.Bytes()
}

// UnmarshalKillSandboxBatch decodes a KillSandboxBatch.
func UnmarshalKillSandboxBatch(b []byte) (*KillSandboxBatch, error) {
	d := codec.NewDecoder(b)
	n := int(d.U32())
	m := &KillSandboxBatch{}
	for i := 0; i < n && d.Err() == nil; i++ {
		m.IDs = append(m.IDs, core.SandboxID(d.U64()))
	}
	return m, wrap(d.Err(), "KillSandboxBatch")
}

// SandboxEvent reports a sandbox lifecycle transition (ready or crashed)
// from a worker to the control plane.
type SandboxEvent struct {
	SandboxID core.SandboxID
	Function  string
	Node      core.NodeID
	Addr      string
}

// Marshal encodes the event.
func (m *SandboxEvent) Marshal() []byte {
	e := codec.NewEncoder(32 + len(m.Function) + len(m.Addr))
	e.U64(uint64(m.SandboxID))
	e.String(m.Function)
	e.U16(uint16(m.Node))
	e.String(m.Addr)
	return e.Bytes()
}

// UnmarshalSandboxEvent decodes a SandboxEvent.
func UnmarshalSandboxEvent(b []byte) (*SandboxEvent, error) {
	d := codec.NewDecoder(b)
	m := &SandboxEvent{}
	m.SandboxID = core.SandboxID(d.U64())
	m.Function = d.String()
	m.Node = core.NodeID(d.U16())
	m.Addr = d.String()
	return m, wrap(d.Err(), "SandboxEvent")
}

// SandboxEventBatch reports several sandbox lifecycle transitions in one
// WN → CP RPC; the worker coalesces whatever became ready while its
// previous report was in flight.
type SandboxEventBatch struct {
	Events []SandboxEvent
}

// Marshal encodes the batch.
func (m *SandboxEventBatch) Marshal() []byte {
	e := codec.NewEncoder(16 + 48*len(m.Events))
	e.U32(uint32(len(m.Events)))
	for i := range m.Events {
		e.RawBytes(m.Events[i].Marshal())
	}
	return e.Bytes()
}

// UnmarshalSandboxEventBatch decodes a SandboxEventBatch.
func UnmarshalSandboxEventBatch(b []byte) (*SandboxEventBatch, error) {
	d := codec.NewDecoder(b)
	n := int(d.U32())
	m := &SandboxEventBatch{}
	for i := 0; i < n && d.Err() == nil; i++ {
		eb := d.RawBytes()
		if d.Err() != nil {
			break
		}
		ev, err := UnmarshalSandboxEvent(eb)
		if err != nil {
			return nil, wrap(err, "SandboxEventBatch")
		}
		m.Events = append(m.Events, *ev)
	}
	return m, wrap(d.Err(), "SandboxEventBatch")
}

// FunctionList carries registered functions from CP to DP caches.
type FunctionList struct {
	Functions []core.Function
}

// Marshal encodes the list.
func (m *FunctionList) Marshal() []byte {
	e := codec.NewEncoder(16 + 128*len(m.Functions))
	e.U32(uint32(len(m.Functions)))
	for i := range m.Functions {
		e.RawBytes(core.MarshalFunction(&m.Functions[i]))
	}
	return e.Bytes()
}

// FunctionDelta returns the FunctionList of the one function whose
// MarshalFunction record is rec: byte for byte what Marshal writes for
// that function, without encoding it again.
func FunctionDelta(rec []byte) []byte {
	e := codec.NewEncoder(8 + len(rec))
	e.U32(1)
	e.RawBytes(rec)
	return e.Bytes()
}

// VisitFunctionList decodes a marshaled FunctionList in place, calling
// visit once per function with its name and target concurrency, the
// fields a data plane keeps. name aliases b and is valid only during the
// call. Every record is checked before the first call: a list
// UnmarshalFunctionList refuses is refused whole, and none of it visited.
func VisitFunctionList(b []byte, visit func(name []byte, targetConcurrency float64)) error {
	if err := walkFunctionList(b, nil); err != nil {
		return err
	}
	return walkFunctionList(b, visit)
}

// walkFunctionList checks the list's records when visit is nil and visits
// every function of a checked list otherwise.
func walkFunctionList(b []byte, visit func(name []byte, targetConcurrency float64)) error {
	d := codec.NewDecoder(b)
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		rec := d.RawBytes()
		if d.Err() != nil {
			break
		}
		name, targetConcurrency, err := core.ViewFunction(rec)
		if err != nil {
			return wrap(err, "FunctionList")
		}
		if visit != nil {
			visit(name, targetConcurrency)
		}
	}
	return wrap(d.Err(), "FunctionList")
}

// UnmarshalFunctionList decodes a FunctionList.
func UnmarshalFunctionList(b []byte) (*FunctionList, error) {
	d := codec.NewDecoder(b)
	n := int(d.U32())
	m := &FunctionList{}
	for i := 0; i < n && d.Err() == nil; i++ {
		fb := d.RawBytes()
		if d.Err() != nil {
			break
		}
		f, err := core.UnmarshalFunction(fb)
		if err != nil {
			return nil, wrap(err, "FunctionList")
		}
		m.Functions = append(m.Functions, *f)
	}
	return m, wrap(d.Err(), "FunctionList")
}

// VoteRequest is the Raft leader-election RPC between CP replicas. The
// candidate's last log position enforces the election restriction: voters
// reject candidates whose replicated log is behind their own, so a leader
// always holds every committed entry.
type VoteRequest struct {
	Term         uint64
	Candidate    string
	LastLogIndex uint64
	LastLogTerm  uint64
}

// Marshal encodes the request.
func (m *VoteRequest) Marshal() []byte {
	e := codec.NewEncoder(40 + len(m.Candidate))
	e.U64(m.Term)
	e.String(m.Candidate)
	e.U64(m.LastLogIndex)
	e.U64(m.LastLogTerm)
	return e.Bytes()
}

// UnmarshalVoteRequest decodes a VoteRequest.
func UnmarshalVoteRequest(b []byte) (*VoteRequest, error) {
	d := codec.NewDecoder(b)
	m := &VoteRequest{}
	m.Term = d.U64()
	m.Candidate = d.String()
	m.LastLogIndex = d.U64()
	m.LastLogTerm = d.U64()
	return m, wrap(d.Err(), "VoteRequest")
}

// VoteResponse answers a VoteRequest.
type VoteResponse struct {
	Term    uint64
	Granted bool
}

// Marshal encodes the response.
func (m *VoteResponse) Marshal() []byte {
	e := codec.NewEncoder(16)
	e.U64(m.Term)
	e.Bool(m.Granted)
	return e.Bytes()
}

// UnmarshalVoteResponse decodes a VoteResponse.
func UnmarshalVoteResponse(b []byte) (*VoteResponse, error) {
	d := codec.NewDecoder(b)
	m := &VoteResponse{}
	m.Term = d.U64()
	m.Granted = d.Bool()
	return m, wrap(d.Err(), "VoteResponse")
}

// LogEntry is one replicated command in the control plane's Raft log: an
// opaque marshaled store mutation stamped with the term it was proposed in.
type LogEntry struct {
	Term uint64
	Data []byte
}

// AppendEntriesRequest replicates a batch of log entries (possibly empty —
// the heartbeat) from the CP leader to one follower. PrevIndex/PrevTerm
// anchor the batch for the Raft log-matching check; CommitIndex lets the
// follower advance its applied state. Many concurrent proposals coalesce
// into one request — the wire-level analogue of wal.FsyncGroup's
// leader-elected flusher.
type AppendEntriesRequest struct {
	Term        uint64
	Leader      string
	PrevIndex   uint64
	PrevTerm    uint64
	CommitIndex uint64
	Entries     []LogEntry
}

// Marshal encodes the request.
func (m *AppendEntriesRequest) Marshal() []byte {
	size := 64 + len(m.Leader)
	for i := range m.Entries {
		size += 16 + len(m.Entries[i].Data)
	}
	e := codec.NewEncoder(size)
	e.U64(m.Term)
	e.String(m.Leader)
	e.U64(m.PrevIndex)
	e.U64(m.PrevTerm)
	e.U64(m.CommitIndex)
	e.U32(uint32(len(m.Entries)))
	for i := range m.Entries {
		e.U64(m.Entries[i].Term)
		e.RawBytes(m.Entries[i].Data)
	}
	return e.Bytes()
}

// UnmarshalAppendEntriesRequest decodes an AppendEntriesRequest.
func UnmarshalAppendEntriesRequest(b []byte) (*AppendEntriesRequest, error) {
	d := codec.NewDecoder(b)
	m := &AppendEntriesRequest{}
	m.Term = d.U64()
	m.Leader = d.String()
	m.PrevIndex = d.U64()
	m.PrevTerm = d.U64()
	m.CommitIndex = d.U64()
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		var ent LogEntry
		ent.Term = d.U64()
		if raw := d.RawBytes(); len(raw) > 0 {
			ent.Data = append([]byte(nil), raw...)
		}
		m.Entries = append(m.Entries, ent)
	}
	return m, wrap(d.Err(), "AppendEntriesRequest")
}

// AppendEntriesResponse acknowledges an AppendEntriesRequest. MatchIndex
// reports the highest log index the follower matches on success, and a
// backtracking hint (the follower's log length) on rejection, so the
// leader re-anchors in one round instead of probing one index at a time.
type AppendEntriesResponse struct {
	Term       uint64
	Success    bool
	MatchIndex uint64
}

// Marshal encodes the response.
func (m *AppendEntriesResponse) Marshal() []byte {
	e := codec.NewEncoder(24)
	e.U64(m.Term)
	e.Bool(m.Success)
	e.U64(m.MatchIndex)
	return e.Bytes()
}

// UnmarshalAppendEntriesResponse decodes an AppendEntriesResponse.
func UnmarshalAppendEntriesResponse(b []byte) (*AppendEntriesResponse, error) {
	d := codec.NewDecoder(b)
	m := &AppendEntriesResponse{}
	m.Term = d.U64()
	m.Success = d.Bool()
	m.MatchIndex = d.U64()
	return m, wrap(d.Err(), "AppendEntriesResponse")
}

func wrap(err error, what string) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("proto: %s: %w", what, err)
}
