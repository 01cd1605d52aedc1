package dataplane

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/loadbalancer"
	"dirigent/internal/proto"
	"dirigent/internal/transport"
)

const (
	// maxStaleRetries bounds how many dead cached endpoints one
	// invocation may burn through before falling back to the cold-start
	// queue and waiting for a fresh broadcast.
	maxStaleRetries = 5
	// maxPickRetries bounds re-picks when a CAS slot acquisition loses
	// to a concurrent invocation between the snapshot pick and the
	// increment.
	maxPickRetries = 8
)

// errUnknownFunction marks invocations of functions absent from the
// local cache. For async dispatch this is almost always a
// not-yet-warmed cache (the CP's function push races recovery and lease
// drains), so the async loop retries it with backoff instead of burning
// the whole retry budget in microseconds of instant failures.
var errUnknownFunction = errors.New("data plane: unknown function")

// handleInvoke is the life of a request inside the data plane (paper §3.3):
// warm starts are proxied immediately through the concurrency throttler;
// cold starts wait in the per-function request queue until the control
// plane reports a ready sandbox.
func (dp *DataPlane) handleInvoke(payload []byte) ([]byte, error) {
	req, err := proto.UnmarshalInvokeRequest(payload)
	if err != nil {
		return nil, err
	}
	if req.Async {
		return dp.acceptAsync(req)
	}
	return dp.invokeSync(req.Function, req.Payload)
}

func (dp *DataPlane) invokeSync(function string, payload []byte) ([]byte, error) {
	arrival := dp.clk.Now()
	dp.mInvocations.Inc()

	fr := dp.lookup(function)
	if fr == nil {
		dp.mUnknownFunction.Inc()
		return nil, fmt.Errorf("%w %q", errUnknownFunction, function)
	}
	for staleRetries := 0; staleRetries < maxStaleRetries; {
		st, info, ok := dp.acquireWarm(fr)
		if !ok {
			// No free (or trustworthy) slot: buffer as a cold start
			// and wait for the control plane to provide capacity.
			break
		}
		// Warm start: a sandbox with a free slot exists right now.
		body, err := dp.proxy(&info, function, payload)
		dp.releaseSlot(fr, st)
		if err != nil {
			if isStaleEndpointErr(err) {
				// The sandbox (or its worker) is gone but the control
				// plane's drain broadcast has not landed yet. Dirigent
				// favors availability (paper §3.4.1): drop the endpoint
				// locally and retry instead of failing the client.
				dp.dropEndpoint(fr, info.ID)
				dp.mStaleDropped.Inc()
				staleRetries++
				continue
			}
			dp.mInvokeErrors.Inc()
			return nil, err
		}
		resp := proto.InvokeResponse{
			ColdStart:           false,
			SchedulingLatencyUs: dp.clk.Since(arrival).Microseconds() - execHintUs(body),
			Body:                body,
		}
		dp.mWarmStarts.Inc()
		return resp.Marshal(), nil
	}

	// Cold start: buffer in the per-function request queue.
	p := &pending{
		payload:    payload,
		enqueuedAt: arrival,
		resultCh:   make(chan invokeResult, 1),
	}
	for {
		dp.lockRuntime(fr)
		if !fr.dead {
			break
		}
		// The runtime died under us; re-resolve so an invocation racing
		// a remove+re-register lands in the live runtime instead of
		// failing against the stale one.
		fr.mu.Unlock()
		if fr = dp.lookup(function); fr == nil {
			dp.mUnknownFunction.Inc()
			return nil, fmt.Errorf("%w %q", errUnknownFunction, function)
		}
	}
	fr.queue = append(fr.queue, p)
	fr.queued.Add(1)
	if len(fr.queue) == 1 && len(fr.endpoints) == 0 {
		// First to wait, and on nothing: tell the control plane now.
		dp.markCold(fr)
	}
	// Re-pump under the lock: a slot may have freed between the failed
	// warm pick and the enqueue, and that release may have observed an
	// empty queue (lost-wakeup guard).
	work := dp.pumpLocked(fr)
	fr.mu.Unlock()
	dp.mColdStarts.Inc()
	dp.runDispatches(work)

	select {
	case res := <-p.resultCh:
		if res.err != nil {
			dp.mInvokeErrors.Inc()
			return nil, res.err
		}
		resp := proto.InvokeResponse{
			ColdStart:           true,
			SchedulingLatencyUs: res.dispatch.Sub(arrival).Microseconds(),
			Body:                res.body,
		}
		return resp.Marshal(), nil
	case <-dp.clk.After(dp.cfg.QueueTimeout):
		dp.abandon(function, p)
		dp.mTimeouts.Inc()
		return nil, fmt.Errorf("data plane: invocation of %q timed out waiting for a sandbox", function)
	case <-dp.stopCh:
		return nil, fmt.Errorf("data plane: shutting down")
	}
}

// execHintUs is a hook for latency accounting; the simulated function
// handlers report pure execution time out of band, so the data plane's
// scheduling latency for warm starts is simply proxy + throttler time.
// Returning 0 keeps the accounting conservative (scheduling latency
// includes the function execution for warm starts measured here; the
// experiment harness measures execution separately).
func execHintUs([]byte) int64 { return 0 }

// acquireWarm claims a concurrency slot on one of fr's ready endpoints,
// returning the endpoint's state (for the later release) and its
// dispatch info. This is the lock-free, allocation-free hot path: load
// the snapshot, pick, CAS the slot.
func (dp *DataPlane) acquireWarm(fr *functionRuntime) (*endpointState, proto.SandboxInfo, bool) {
	snap := fr.snap.Load()
	idx := dp.tryAcquireSnapshot(fr.name, snap)
	if idx < 0 {
		return nil, proto.SandboxInfo{}, false
	}
	return snap.states[idx], snap.infos[idx], true
}

// tryAcquireSnapshot picks an endpoint from snap and CAS-claims one of
// its concurrency slots, re-picking when it loses the slot to a
// concurrent invocation between the pick and the CAS. Returns the chosen
// index, or -1 when the snapshot is empty, saturated, or too contended.
func (dp *DataPlane) tryAcquireSnapshot(name string, snap *endpointSnapshot) int {
	if len(snap.eps) == 0 {
		return -1
	}
	for attempt := 0; attempt < maxPickRetries; attempt++ {
		idx := dp.pickIndex(name, dp.invokeSeq.Add(1), snap)
		if idx < 0 {
			return -1
		}
		if snap.eps[idx].TryAcquire() {
			return idx
		}
		dp.mPickRaces.Inc()
	}
	return -1
}

// pickIndex runs the load-balancing policy over an endpoint snapshot and
// returns the chosen index, or -1 when every endpoint is saturated.
func (dp *DataPlane) pickIndex(function string, key uint64, snap *endpointSnapshot) int {
	if dp.snapPolicy != nil {
		return dp.snapPolicy.PickIndex(function, key, snap.eps)
	}
	return dp.pickAllocating(function, key, snap)
}

// pickAllocating adapts snapshot picks to policies that only implement
// Pick (e.g. CH-RLU): it copies the snapshot into a fresh []Endpoint,
// one allocation per pick.
func (dp *DataPlane) pickAllocating(function string, key uint64, snap *endpointSnapshot) int {
	eps := make([]loadbalancer.Endpoint, len(snap.eps))
	for i := range snap.eps {
		se := &snap.eps[i]
		eps[i] = loadbalancer.Endpoint{
			SandboxID: se.SandboxID,
			Addr:      se.Addr,
			InFlight:  int(se.InFlight.Load()),
			Capacity:  se.Capacity,
		}
	}
	chosen := dp.cfg.Balancer.Pick(function, key, eps)
	if chosen == nil {
		return -1
	}
	for i := range snap.eps {
		if snap.eps[i].SandboxID == chosen.SandboxID {
			return i
		}
	}
	return -1
}

// proxy forwards the invocation to the worker hosting the sandbox; this is
// the HTTP/2 reverse-proxy hop in Figure 6.
func (dp *DataPlane) proxy(info *proto.SandboxInfo, function string, payload []byte) ([]byte, error) {
	req := proto.InvokeSandboxRequest{
		SandboxID: info.ID,
		Function:  function,
		Payload:   payload,
	}
	ctx, cancel := context.WithTimeout(context.Background(), dp.cfg.QueueTimeout)
	defer cancel()
	return dp.cfg.Transport.Call(ctx, info.Addr, proto.MethodInvokeSandbox, req.Marshal())
}

// releaseSlot frees a concurrency slot and, only when cold starts are
// actually waiting, pumps the queue. The warm steady state is a single
// atomic decrement plus one atomic load.
func (dp *DataPlane) releaseSlot(fr *functionRuntime, st *endpointState) {
	st.inFlight.Add(-1)
	// Seq-cst atomics make this safe against a concurrent enqueue: the
	// enqueuer increments queued before re-checking slots, we decrement
	// the slot before checking queued, so at least one side sees the
	// other (no lost wakeup).
	if fr.queued.Load() == 0 {
		return
	}
	dp.pumpRuntime(fr)
}

// pumpRuntime locks fr and dispatches whatever queued invocations its
// current endpoint snapshot can absorb.
func (dp *DataPlane) pumpRuntime(fr *functionRuntime) {
	dp.lockRuntime(fr)
	work := dp.pumpLocked(fr)
	fr.mu.Unlock()
	dp.runDispatches(work)
}

type dispatchWork struct {
	fr   *functionRuntime
	info proto.SandboxInfo
	st   *endpointState
	p    *pending
}

// pumpLocked matches queued invocations with free endpoint slots.
// Callers hold fr.mu; the returned work must be executed off-lock, which
// is why each item carries the endpoint info snapshot taken here
// (endpoint updates may republish concurrently).
func (dp *DataPlane) pumpLocked(fr *functionRuntime) []dispatchWork {
	var work []dispatchWork
	for len(fr.queue) > 0 {
		snap := fr.snap.Load()
		idx := dp.tryAcquireSnapshot(fr.name, snap)
		if idx < 0 {
			break
		}
		p := fr.queue[0]
		fr.queue = fr.queue[1:]
		fr.queued.Add(-1)
		work = append(work, dispatchWork{fr: fr, info: snap.infos[idx], st: snap.states[idx], p: p})
	}
	return work
}

func (dp *DataPlane) runDispatches(work []dispatchWork) {
	for _, d := range work {
		go dp.dispatch(d)
	}
}

// dispatch executes one dequeued cold-start invocation. If the chosen
// endpoint turns out to be stale (sandbox or worker gone before the drain
// broadcast arrived), the endpoint is dropped and the invocation requeued
// rather than failed.
func (dp *DataPlane) dispatch(d dispatchWork) {
	dispatchedAt := dp.clk.Now()
	body, err := dp.proxy(&d.info, d.fr.name, d.p.payload)
	if err != nil && isStaleEndpointErr(err) {
		dp.dropEndpoint(d.fr, d.info.ID)
		dp.mStaleDropped.Inc()
		// requeue may land the pending in a re-registered successor
		// runtime; pump the runtime that actually holds it, after the
		// slot release so the pump sees the freed capacity.
		target := dp.requeue(d.fr, d.p)
		d.st.inFlight.Add(-1)
		if target != nil {
			dp.pumpRuntime(target)
		}
		return
	}
	dp.releaseSlot(d.fr, d.st)
	d.p.resultCh <- invokeResult{
		body:      body,
		err:       err,
		dispatch:  dispatchedAt,
		coldStart: true,
	}
}

// isStaleEndpointErr reports whether a proxy failure indicates the target
// sandbox no longer exists (as opposed to an application error from the
// function itself).
func isStaleEndpointErr(err error) bool {
	if errors.Is(err, transport.ErrUnreachable) {
		return true
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		return strings.Contains(re.Msg, "no such sandbox") ||
			strings.Contains(re.Msg, "address unreachable")
	}
	return false
}

// dropEndpoint removes a stale endpoint from the local cache and
// republishes the snapshot; the next control-plane broadcast
// re-synchronizes the authoritative view.
func (dp *DataPlane) dropEndpoint(fr *functionRuntime, id core.SandboxID) {
	dp.lockRuntime(fr)
	if _, ok := fr.endpoints[id]; ok {
		delete(fr.endpoints, id)
		dp.rebuildSnapshotLocked(fr)
	}
	fr.mu.Unlock()
}

// requeue puts a pending invocation back at the head of the function's
// queue so a subsequent endpoint can absorb it, re-resolving the runtime
// if it was deregistered (and possibly re-registered) in the meantime.
// It returns the runtime that holds the pending, or nil when the
// function is gone and the pending was failed.
func (dp *DataPlane) requeue(fr *functionRuntime, p *pending) *functionRuntime {
	name := fr.name
	for {
		dp.lockRuntime(fr)
		if !fr.dead {
			break
		}
		fr.mu.Unlock()
		if fr = dp.lookup(name); fr == nil {
			p.resultCh <- invokeResult{err: deregisteredErr(name)}
			return nil
		}
	}
	defer fr.mu.Unlock()
	fr.queue = append([]*pending{p}, fr.queue...)
	fr.queued.Add(1)
	return fr
}

// abandon removes a timed-out pending invocation from the queue. It
// resolves by name so it finds the pending even if requeue migrated it
// into a re-registered successor runtime.
func (dp *DataPlane) abandon(function string, p *pending) {
	fr := dp.lookup(function)
	if fr == nil {
		return
	}
	dp.lockRuntime(fr)
	defer fr.mu.Unlock()
	for i, q := range fr.queue {
		if q == p {
			fr.queue = append(fr.queue[:i], fr.queue[i+1:]...)
			fr.queued.Add(-1)
			return
		}
	}
}

// acceptAsync durably queues an asynchronous invocation on its
// function's queue shard and acknowledges immediately; the shard's
// dispatch loop executes it with retries (at-least-once, paper §3.4.2).
func (dp *DataPlane) acceptAsync(req *proto.InvokeRequest) ([]byte, error) {
	task := asyncTask{function: req.Function, payload: req.Payload}
	sh := dp.asyncShardFor(req.Function)
	// Persist before acknowledging: once the client sees "accepted", the
	// invocation survives a data plane crash (paper §3.4.2).
	if err := dp.persistAsync(sh, &task); err != nil {
		dp.metrics.Counter("async_rejected").Inc()
		return nil, fmt.Errorf("data plane: persist async invocation: %w", err)
	}
	if err := sh.tryAdmit(task, true); err != nil {
		dp.settleAsync(&task)
		dp.metrics.Counter("async_rejected").Inc()
		return nil, err
	}
	dp.metrics.Counter("async_accepted").Inc()
	resp := proto.InvokeResponse{Body: []byte("accepted")}
	return resp.Marshal(), nil
}

// asyncLoop drains one queue shard. Each shard runs its own loop, so a
// slow function (every dispatch here is a full synchronous invocation,
// retries included) only stalls the tasks hashed to its shard.
func (dp *DataPlane) asyncLoop(sh *asyncShard) {
	defer dp.wg.Done()
	for {
		task, ok := sh.next()
		if !ok {
			return
		}
		// A leased task is re-validated at dispatch: a lease revoked (or
		// re-granted elsewhere) while the task sat queued must not
		// execute here — its durable record belongs to a newer epoch.
		if task.leased && !dp.leaseCheck(&task) {
			dp.forgetLeasedKey(task.storeHash, task.storeKey)
			dp.metrics.Counter("async_lease_dropped").Inc()
			continue
		}
		if _, err := dp.invokeSync(task.function, task.payload); err != nil {
			task.attempt++
			if task.attempt <= dp.cfg.AsyncRetries {
				dp.metrics.Counter("async_retries").Inc()
				// Unknown function fails in microseconds (the CP's
				// function push races recovery and lease drains), so an
				// instant retry would burn the whole budget before the
				// cache warms: take the backoff path. Overflowed
				// instant retries back off too rather than strand.
				if errors.Is(err, errUnknownFunction) || sh.tryAdmit(task, false) != nil {
					dp.metrics.Counter("async_backoff").Inc()
					dp.wg.Add(1)
					go dp.requeueAsync(sh, task)
				}
			} else {
				dp.settleAsync(&task)
				dp.metrics.Counter("async_failed").Inc()
			}
		} else {
			dp.settleAsync(&task)
			dp.metrics.Counter("async_completed").Inc()
		}
	}
}

// requeueAsync retries handing an overflowed async retry back to its
// shard with exponential backoff, keeping at-least-once semantics
// without a restart. The durable record stays in place until the task
// settles, so a crash during the backoff still recovers it.
func (dp *DataPlane) requeueAsync(sh *asyncShard, task asyncTask) {
	defer dp.wg.Done()
	backoff := 10 * time.Millisecond
	for {
		select {
		case <-dp.stopCh:
			return
		case <-dp.clk.After(backoff):
		}
		if sh.tryAdmit(task, false) == nil {
			dp.metrics.Counter("async_requeued").Inc()
			return
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// heartbeatLoop announces this replica's liveness to the control plane on
// the injected clock. When heartbeats stop, the control plane prunes the
// replica from its broadcast fan-out set and from the live set the front
// end polls; when they resume, it re-admits the replica with a full cache
// re-warm.
func (dp *DataPlane) heartbeatLoop() {
	defer dp.wg.Done()
	for {
		select {
		case <-dp.stopCh:
			return
		case <-dp.clk.After(dp.cfg.HeartbeatInterval):
			dp.sendHeartbeat()
		}
	}
}

func (dp *DataPlane) sendHeartbeat() {
	hb := proto.DataPlaneHeartbeat{DataPlane: dp.identity()}
	ctx, cancel := context.WithTimeout(context.Background(), dp.cfg.HeartbeatInterval*4)
	defer cancel()
	// Best effort: a missed heartbeat is exactly what the CP's health
	// monitor is designed to tolerate and detect. The ack carries the
	// replica's current queue epoch — after a prune-and-revive it is the
	// fresh revival epoch that out-fences any lease on our records.
	resp, err := dp.cp.Call(ctx, proto.MethodDataPlaneHeartbeat, hb.Marshal())
	if err == nil {
		dp.adoptEpochAck(resp)
	}
}

// metricLoop reports per-function scaling metrics to the control plane
// (paper Table 2): every function once a period, which is what steady-state
// scaling and scale-down run on, and in between, as soon as markCold wakes
// it, the functions an invocation has just queued for with no endpoint, so
// a scale from zero waits for neither this timer nor the control plane's
// tick. The period is driven by the injected clock so simulated-time tests
// don't burn wall time, and a wake-up does not restart it.
//
// Reports leave one at a time, so marks that arrive while one is in flight
// share the next: a burst of cold arrivals costs two RPCs, not one each.
func (dp *DataPlane) metricLoop() {
	defer dp.wg.Done()
	period := dp.clk.After(dp.cfg.MetricInterval)
	for {
		select {
		case <-dp.stopCh:
			return
		case <-period:
			dp.reportMetrics()
			period = dp.clk.After(dp.cfg.MetricInterval)
		case <-dp.coldWake:
			dp.reportCold()
		}
	}
}

// markCold puts fr in the set metricLoop reports at once and wakes the
// loop. Callers hold fr.mu. A stale-endpoint requeue does not come here:
// the control plane still counts that sandbox, and the failure detector,
// not the autoscaler, owns its replacement.
func (dp *DataPlane) markCold(fr *functionRuntime) {
	if !fr.coldMarked.CompareAndSwap(false, true) {
		return
	}
	dp.coldMu.Lock()
	dp.cold = append(dp.cold, fr)
	dp.coldMu.Unlock()
	select {
	case dp.coldWake <- struct{}{}:
	default: // a wake-up is already pending and will take this mark along
	}
}

// reportCold sends the scaling metrics of the marked functions only. It is
// best effort like the periodic report, which is also its fallback.
func (dp *DataPlane) reportCold() {
	dp.coldMu.Lock()
	marked := dp.cold
	dp.cold = nil
	dp.coldMu.Unlock()
	now := dp.clk.Now()
	report := proto.ScalingMetricReport{DataPlane: dp.cfg.ID, Metrics: make([]core.ScalingMetric, 0, len(marked))}
	for _, fr := range marked {
		// Unmark before reading: an arrival from here on marks again
		// rather than go unreported.
		fr.coldMarked.Store(false)
		report.Metrics = append(report.Metrics, fr.scalingMetric(now))
	}
	dp.sendMetrics(&report)
}

// reportMetrics sends the scaling metrics of every function.
func (dp *DataPlane) reportMetrics() {
	now := dp.clk.Now()
	report := proto.ScalingMetricReport{DataPlane: dp.cfg.ID}
	for _, sh := range dp.shards {
		for _, fr := range sh.fns.load() {
			report.Metrics = append(report.Metrics, fr.scalingMetric(now))
		}
	}
	dp.sendMetrics(&report)
}

// scalingMetric collects fr's in-flight plus queued requests. It reads
// only the published snapshot and atomic counters — a report never stalls
// the invoke path.
func (fr *functionRuntime) scalingMetric(now time.Time) core.ScalingMetric {
	snap := fr.snap.Load()
	inFlight := 0
	for i := range snap.eps {
		inFlight += int(snap.eps[i].InFlight.Load())
	}
	return core.ScalingMetric{
		Function:   fr.name,
		InFlight:   inFlight,
		QueueDepth: int(fr.queued.Load()),
		At:         now,
	}
}

func (dp *DataPlane) sendMetrics(report *proto.ScalingMetricReport) {
	if len(report.Metrics) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), dp.cfg.MetricInterval*4)
	defer cancel()
	// Best effort: a missed report only delays autoscaling by one period.
	_, _ = dp.cp.Call(ctx, proto.MethodScalingMetric, report.Marshal())
}

// QueueDepth reports the number of buffered invocations for a function.
func (dp *DataPlane) QueueDepth(function string) int {
	if fr := dp.lookup(function); fr != nil {
		return int(fr.queued.Load())
	}
	return 0
}

// EndpointCount reports the number of cached ready endpoints for a
// function.
func (dp *DataPlane) EndpointCount(function string) int {
	if fr := dp.lookup(function); fr != nil {
		return len(fr.snap.Load().eps)
	}
	return 0
}
