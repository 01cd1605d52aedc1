package dataplane

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
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
//
// The request is decoded in place: the function name is looked up by its
// bytes and the payload is proxied from the frame, so a warm start copies
// neither. Only the async branch, whose task outlives the call, copies.
func (dp *DataPlane) handleInvoke(payload []byte) ([]byte, error) {
	function, async, body, err := proto.DecodeInvokeRequest(payload)
	if err != nil {
		return nil, err
	}
	if async {
		return dp.acceptAsync(string(function), body)
	}
	if fr := dp.lookupBytes(function); fr != nil {
		return dp.invoke(fr, body)
	}
	return nil, dp.unknownFunction(string(function))
}

// invokeSync runs one synchronous invocation of function.
func (dp *DataPlane) invokeSync(function string, payload []byte) ([]byte, error) {
	if fr := dp.lookup(function); fr != nil {
		return dp.invoke(fr, payload)
	}
	return nil, dp.unknownFunction(function)
}

// unknownFunction counts an invocation of a function the cache does not
// hold and builds its error.
func (dp *DataPlane) unknownFunction(function string) error {
	dp.mInvocations.Inc()
	dp.mUnknownFunction.Inc()
	return fmt.Errorf("%w %q", errUnknownFunction, function)
}

// invoke runs one synchronous invocation on fr: warm when a slot is free,
// else queued as a cold start.
func (dp *DataPlane) invoke(fr *functionRuntime, payload []byte) ([]byte, error) {
	arrival := dp.clk.Now()
	dp.mInvocations.Inc()
	function := fr.name
	for staleRetries := 0; staleRetries < maxStaleRetries; {
		st, info, ok := dp.acquireWarm(fr)
		if !ok {
			// No free (or trustworthy) slot: buffer as a cold start
			// and wait for the control plane to provide capacity.
			break
		}
		// Warm start: a sandbox with a free slot exists right now.
		dp.markActive(fr)
		body, frame, err := dp.proxy(&info, function, payload)
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
			SchedulingLatencyUs: dp.clk.Since(arrival).Microseconds(),
			Body:                body,
		}
		dp.mWarmStarts.Inc()
		out := resp.Marshal()
		transport.PutFrame(frame) // body, which may alias it, is copied
		return out, nil
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
	dp.markActive(fr)
	if len(fr.queue) == 1 && len(fr.snap.Load().states) == 0 {
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
		out := resp.Marshal()
		transport.PutFrame(res.frame)
		return out, nil
	case <-dp.clk.After(dp.cfg.QueueTimeout):
		dp.abandon(function, p)
		dp.mTimeouts.Inc()
		return nil, fmt.Errorf("data plane: invocation of %q timed out waiting for a sandbox", function)
	case <-dp.stopCh:
		// The front end fails the invocation over to another replica, so
		// it must not run here too.
		dp.abandon(function, p)
		return nil, fmt.Errorf("data plane: shutting down")
	}
}

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
	st := snap.states[idx]
	return st, st.info, true
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
// the HTTP/2 reverse-proxy hop in Figure 6. The request is encoded into a
// pooled frame, returned with the body after a call that succeeded: the
// body may alias the frame (an echo does), so the caller gives the frame
// back with transport.PutFrame only once it has copied the body. After a
// failed call the frame is dropped and frame is nil.
func (dp *DataPlane) proxy(info *proto.SandboxInfo, function string, payload []byte) (body []byte, frame *[]byte, err error) {
	req := proto.InvokeSandboxRequest{
		SandboxID: info.ID,
		Function:  function,
		Payload:   payload,
	}
	frame = transport.GetFrame()
	*frame = req.AppendTo(*frame)
	ctx := transport.NewDeadline(context.Background(), dp.cfg.QueueTimeout)
	body, err = dp.cfg.Transport.Call(ctx, info.Addr, proto.MethodInvokeSandbox, *frame)
	ctx.Stop()
	if err != nil {
		return nil, nil, err
	}
	return body, frame, nil
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

// pumpLocked matches queued invocations with free endpoint slots and
// drops the abandoned ones it meets at the head of the queue.
// Callers hold fr.mu; the returned work must be executed off-lock, which
// is why each item carries the endpoint info snapshot taken here
// (endpoint updates may republish concurrently).
func (dp *DataPlane) pumpLocked(fr *functionRuntime) []dispatchWork {
	var work []dispatchWork
	for len(fr.queue) > 0 {
		p := fr.queue[0]
		if !p.abandoned.Load() {
			snap := fr.snap.Load()
			idx := dp.tryAcquireSnapshot(fr.name, snap)
			if idx < 0 {
				break
			}
			st := snap.states[idx]
			work = append(work, dispatchWork{fr: fr, info: st.info, st: st, p: p})
		}
		fr.queue[0] = nil // the array outlives the dequeue
		fr.queue = fr.queue[1:]
		fr.queued.Add(-1)
	}
	if len(fr.queue) == 0 {
		fr.queue = nil
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
	body, frame, err := dp.proxy(&d.info, d.fr.name, d.p.payload)
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
		body:     body,
		frame:    frame,
		err:      err,
		dispatch: dispatchedAt,
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
	defer fr.mu.Unlock()
	cur := fr.snap.Load().states
	i := slices.IndexFunc(cur, func(st *endpointState) bool { return st.info.ID == id })
	if i < 0 {
		return
	}
	snap := newSnapshot(len(cur) - 1)
	snap.states = append(append(snap.states, cur[:i]...), cur[i+1:]...)
	dp.publishLocked(fr, snap)
}

// requeue puts a pending invocation back at the head of the function's
// queue so a subsequent endpoint can absorb it, re-resolving the runtime
// if it was deregistered (and possibly re-registered) in the meantime.
// It returns the runtime that holds the pending, or nil when the
// function is gone and the pending was failed, or the pending was
// abandoned while its dispatch was in flight and is dropped.
func (dp *DataPlane) requeue(fr *functionRuntime, p *pending) *functionRuntime {
	if p.abandoned.Load() {
		return nil
	}
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
	dp.markActive(fr)
	return fr
}

// abandon removes a pending invocation nobody waits for any more (it timed
// out, or the data plane is shutting down) from the queue. It
// resolves by name so it finds the pending even if requeue migrated it
// into a re-registered successor runtime. A dispatch in flight holds the
// pending outside any queue; the mark makes requeue drop it should that
// dispatch find a stale endpoint, and pumpLocked skip it wherever it is
// queued.
func (dp *DataPlane) abandon(function string, p *pending) {
	p.abandoned.Store(true)
	fr := dp.lookup(function)
	if fr == nil {
		return
	}
	dp.lockRuntime(fr)
	defer fr.mu.Unlock()
	if i := slices.Index(fr.queue, p); i >= 0 {
		fr.queue = slices.Delete(fr.queue, i, i+1) // clears the vacated slot
		if len(fr.queue) == 0 {
			fr.queue = nil
		}
		fr.queued.Add(-1)
	}
}

// acceptAsync durably queues an asynchronous invocation on its
// function's queue shard and acknowledges immediately; the shard's
// dispatch loop executes it with retries (at-least-once, paper §3.4.2).
// The task outlives the call, so it keeps its own copy of the payload,
// not the request frame's.
func (dp *DataPlane) acceptAsync(function string, payload []byte) ([]byte, error) {
	task := asyncTask{function: function, payload: bytes.Clone(payload)}
	sh := dp.asyncShardFor(function)
	// Persist before acknowledging: once the client sees "accepted", the
	// invocation survives a data plane crash (paper §3.4.2).
	if err := dp.persistAsync(sh, &task); err != nil {
		dp.mAsync.rejected.Inc()
		return nil, fmt.Errorf("data plane: persist async invocation: %w", err)
	}
	if err := sh.tryAdmit(task, true); err != nil {
		dp.settleAsync(&task)
		dp.mAsync.rejected.Inc()
		return nil, err
	}
	dp.mAsync.accepted.Inc()
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
			dp.mAsync.leaseDropped.Inc()
			continue
		}
		if _, err := dp.invokeSync(task.function, task.payload); err != nil {
			task.attempt++
			if task.attempt <= dp.cfg.AsyncRetries {
				dp.mAsync.retries.Inc()
				// Unknown function fails in microseconds (the CP's
				// function push races recovery and lease drains), so an
				// instant retry would burn the whole budget before the
				// cache warms: take the backoff path. Overflowed
				// instant retries back off too rather than strand.
				if errors.Is(err, errUnknownFunction) || sh.tryAdmit(task, false) != nil {
					dp.mAsync.backoff.Inc()
					dp.wg.Add(1)
					go dp.requeueAsync(sh, task)
				}
			} else {
				dp.settleAsync(&task)
				dp.mAsync.failed.Inc()
			}
		} else {
			dp.settleAsync(&task)
			dp.mAsync.completed.Inc()
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
			dp.mAsync.requeued.Inc()
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

// fullReportEvery makes every fullReportEvery-th periodic report carry
// every function, changed or not: the ground truth that repairs whatever
// a lost acknowledgement or a control-plane restart left out of its demand
// table, in the shape of the control plane's fullScanEvery health sweep.
// At a 20 ms period that is one full report a second, at the 250 ms
// default one every 12.5 s.
const fullReportEvery = 50

// metricLoop reports per-function scaling metrics to the control plane
// (paper Table 2). Once a period it sends the functions whose demand (in
// flight plus queued) differs from what the control plane last
// acknowledged, which is what steady-state scaling and scale-down run on:
// the control plane keeps each replica's last value, so an idle function
// costs nothing after its zero has been acknowledged. The period looks at
// the active runtimes only (markActive), not the whole registry. In between, as soon
// as markCold wakes it, it sends the functions an invocation has just
// queued for with no endpoint, so a scale from zero waits for neither this
// timer nor the control plane's tick. The period is driven by the injected
// clock so simulated-time tests don't burn wall time, and a wake-up does
// not restart it.
//
// Reports leave one at a time, so marks that arrive while one is in flight
// share the next: a burst of cold arrivals costs two RPCs, not one each.
// This goroutine is the only reader and writer of functionRuntime.reported.
func (dp *DataPlane) metricLoop() {
	defer dp.wg.Done()
	period := dp.clk.After(dp.cfg.MetricInterval)
	for seq := 1; ; {
		select {
		case <-dp.stopCh:
			return
		case <-period:
			if seq%fullReportEvery == 0 {
				dp.fullReport.Store(true)
			}
			dp.reportMetrics()
			seq++
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
// best effort like the periodic report, which is also its fallback: a
// function whose trigger is lost still differs from what the control plane
// acknowledged, so the next period sends it.
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
	dp.sendMetrics(&report, marked)
}

// reportMetrics sends the scaling metrics of the functions whose demand
// changed since the control plane last acknowledged it, or of every
// function when a full report is owed: the first after Start, the first
// after a function sync (the control plane sends one whenever its demand
// table for this replica may be empty), every fullReportEvery-th period,
// and the next after a full report that failed. A failed report of
// changes needs no such care: what it carried still differs from the
// acknowledged values and goes out again next period.
//
// Only the active runtimes can differ from what the control plane holds,
// so a report of changes looks at those alone; a full report looks at
// every runtime. Either way the report is followed by pruneActive.
func (dp *DataPlane) reportMetrics() {
	// Take the debt before reading: a sync from here on owes the next
	// report as well.
	full := dp.fullReport.Swap(false)
	now := dp.clk.Now()
	report := proto.ScalingMetricReport{DataPlane: dp.cfg.ID}
	var sent []*functionRuntime
	polls := 0
	visit := func(fr *functionRuntime) {
		polls++
		m := fr.scalingMetric(now)
		if full || m.InFlight+m.QueueDepth != fr.reported {
			report.Metrics = append(report.Metrics, m)
			sent = append(sent, fr)
		}
	}
	active := dp.takeActive()
	if full {
		for _, sh := range dp.shards {
			for _, fr := range sh.fns.load() {
				visit(fr)
			}
		}
	} else {
		for _, fr := range active {
			if dp.registered(fr) {
				visit(fr)
			}
		}
	}
	dp.polls.Add(uint64(polls))
	if !dp.sendMetrics(&report, sent) && full {
		dp.fullReport.Store(true)
	}
	dp.pruneActive(active)
}

// markActive puts fr in the active list unless it is there: called
// wherever its demand rises (a warm slot taken, an invocation queued or
// requeued), after the rise. On the warm path it costs one atomic load.
func (dp *DataPlane) markActive(fr *functionRuntime) {
	if !fr.active.Load() {
		dp.enlist(fr)
	}
}

func (dp *DataPlane) enlist(fr *functionRuntime) {
	if !fr.active.CompareAndSwap(false, true) {
		return
	}
	dp.activeMu.Lock()
	dp.active = append(dp.active, fr)
	dp.activeMu.Unlock()
	dp.nActive.Add(1)
}

// takeActive hands the active list to the report, leaving an empty one in
// its place for the runtimes that join meanwhile.
func (dp *DataPlane) takeActive() []*functionRuntime {
	dp.activeMu.Lock()
	defer dp.activeMu.Unlock()
	taken := dp.active
	dp.active, dp.spareActive = dp.spareActive[:0], nil
	return taken
}

// pruneActive takes out of active, the list takeActive handed out, every
// runtime the control plane holds a 0 for and that has no demand, or that
// is no longer registered, and merges the rest back into the active list.
func (dp *DataPlane) pruneActive(active []*functionRuntime) {
	kept := active[:0]
	for _, fr := range active {
		busy := dp.registered(fr) && (fr.reported != 0 || fr.demand() != 0)
		if busy || stays(fr) {
			kept = append(kept, fr)
			continue
		}
		dp.nActive.Add(-1)
	}
	clear(active[len(kept):])
	dp.activeMu.Lock()
	joined := dp.active
	dp.active = append(kept, joined...)
	clear(joined)
	dp.spareActive = joined[:0]
	dp.activeMu.Unlock()
}

// stays clears fr's active flag, found idle, and reports whether fr must
// stay listed after all: an arrival since the idle check raised its
// demand. The flag is cleared before the demand is read again, and
// markActive raises demand before it reads the flag (seq-cst atomics), so
// an arrival racing the prune either finds the flag clear and enlists fr
// itself, or is seen here. A runtime no longer registered has no demand:
// its endpoint set is empty and its queue dead.
func stays(fr *functionRuntime) bool {
	fr.active.Store(false)
	return fr.demand() != 0 && fr.active.CompareAndSwap(false, true)
}

// registered reports whether fr is the registry's runtime for its name.
func (dp *DataPlane) registered(fr *functionRuntime) bool { return dp.lookup(fr.name) == fr }

// ActiveFunctions reports how many runtimes the metric loop's reports of
// changes look at, the active ones, and how many per-function metrics the
// periodic reports have collected in all.
func (dp *DataPlane) ActiveFunctions() (active int, polls uint64) {
	return int(dp.nActive.Load()), dp.polls.Load()
}

// scalingMetric collects fr's in-flight plus queued requests. It reads
// only the published snapshot and atomic counters — a report never stalls
// the invoke path.
func (fr *functionRuntime) scalingMetric(now time.Time) core.ScalingMetric {
	return core.ScalingMetric{
		Function:   fr.name,
		InFlight:   fr.inFlight(),
		QueueDepth: int(fr.queued.Load()),
		At:         now,
	}
}

func (fr *functionRuntime) inFlight() int {
	snap := fr.snap.Load()
	n := 0
	for i := range snap.eps {
		n += int(snap.eps[i].InFlight.Load())
	}
	return n
}

// demand is fr's in-flight plus queued requests.
func (fr *functionRuntime) demand() int { return fr.inFlight() + int(fr.queued.Load()) }

// sendMetrics sends report, whose i-th metric is fns[i]'s, and once the
// control plane has acknowledged it records each sent demand as fns[i]'s
// reported value. It reports whether the control plane holds the report;
// an empty one it holds without a call.
func (dp *DataPlane) sendMetrics(report *proto.ScalingMetricReport, fns []*functionRuntime) bool {
	if len(report.Metrics) == 0 {
		return true
	}
	ctx := transport.NewDeadline(context.Background(), dp.cfg.MetricInterval*4)
	defer ctx.Stop()
	// Best effort: a missed report only delays autoscaling by one period.
	if _, err := dp.cp.Call(ctx, proto.MethodScalingMetric, report.Marshal()); err != nil {
		return false
	}
	for i, fr := range fns {
		fr.reported = report.Metrics[i].InFlight + report.Metrics[i].QueueDepth
	}
	return true
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
