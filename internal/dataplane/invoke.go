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
		ctx := transport.NewDeadline(context.Background(), dp.cfg.QueueTimeout)
		body, frame, err := dp.proxy(ctx, &info, function, payload)
		ctx.Stop()
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
	return dp.invokeCold(fr, payload, arrival)
}

// invokeCold queues one invocation as a cold start and waits for a slot.
// The waiter dispatches itself: pumpLocked hands it a claimed slot through
// its grant channel and it proxies the invocation on its own goroutine, so
// no goroutine is started per cold dispatch, and an invocation nobody
// waits for any more cannot run. The whole wait, queue and proxy call
// together, is bounded by QueueTimeout: the proxy gets what is left of it,
// and Stop ends a proxy call in flight. Over TCP both bound the call; an
// in-process call checks them only before its handler runs, as it does on
// the warm path.
func (dp *DataPlane) invokeCold(fr *functionRuntime, payload []byte, arrival time.Time) ([]byte, error) {
	function := fr.name
	p := &pending{grant: make(chan grant, 1)}
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
	p.fr = fr
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
	dp.pumpLocked(fr)
	fr.mu.Unlock()
	dp.mColdStarts.Inc()

	timeout := dp.clk.After(dp.cfg.QueueTimeout)
	for {
		select {
		case g := <-p.grant:
			if g.err != nil {
				dp.mInvokeErrors.Inc()
				return nil, g.err
			}
			// A grant that raced the end of the wait is not used: the
			// select may take it over a timeout or a stop that are due.
			select {
			case <-dp.stopCh:
				dp.returnSlot(p.fr, g.st)
				return nil, errShuttingDown
			default:
			}
			dispatchedAt := dp.clk.Now()
			left := dp.cfg.QueueTimeout - dispatchedAt.Sub(arrival)
			if left <= 0 {
				dp.returnSlot(p.fr, g.st)
				return nil, dp.queueTimedOut(function)
			}
			ctx := transport.NewDeadline(dp.stopCtx, left)
			body, frame, err := dp.proxy(ctx, &g.st.info, function, payload)
			ctx.Stop()
			if err != nil && dp.stopCtx.Err() != nil {
				// Stop ended the call, or it failed as the data plane
				// stops: the front end fails the invocation over.
				dp.releaseSlot(p.fr, g.st)
				return nil, errShuttingDown
			}
			if err != nil && isStaleEndpointErr(err) {
				// The sandbox (or its worker) went away before the
				// control plane's drain reached us: drop the endpoint and
				// wait for another. Requeue before the slot goes back, so
				// the pump that the release runs sees this invocation.
				dp.dropEndpoint(p.fr, g.st.info.ID)
				dp.mStaleDropped.Inc()
				target := dp.requeue(p.fr, p)
				g.st.inFlight.Add(-1)
				if target != nil {
					dp.pumpRuntime(target)
				}
				continue
			}
			dp.releaseSlot(p.fr, g.st)
			if err != nil {
				dp.mInvokeErrors.Inc()
				return nil, err
			}
			resp := proto.InvokeResponse{
				ColdStart:           true,
				SchedulingLatencyUs: dispatchedAt.Sub(arrival).Microseconds(),
				Body:                body,
			}
			out := resp.Marshal()
			transport.PutFrame(frame) // body, which may alias it, is copied
			return out, nil
		case <-timeout:
			dp.abandon(p)
			return nil, dp.queueTimedOut(function)
		case <-dp.stopCh:
			// The front end fails the invocation over to another replica, so
			// it must not run here too.
			dp.abandon(p)
			return nil, errShuttingDown
		}
	}
}

// errShuttingDown fails the invocations a stopping data plane still holds.
var errShuttingDown = errors.New("data plane: shutting down")

// queueTimedOut counts a cold invocation whose wait reached QueueTimeout
// and builds its error.
func (dp *DataPlane) queueTimedOut(function string) error {
	dp.mTimeouts.Inc()
	return fmt.Errorf("data plane: invocation of %q timed out waiting for a sandbox", function)
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
		idx := dp.cfg.Balancer.PickIndex(name, dp.invokeSeq.Add(1), snap.eps)
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

// proxy forwards the invocation to the worker hosting the sandbox; this is
// the HTTP/2 reverse-proxy hop in Figure 6. The request is encoded into a
// pooled frame, returned with the body after a call that succeeded: the
// body may alias the frame (an echo does), so the caller gives the frame
// back with transport.PutFrame only once it has copied the body. After a
// failed call the frame is dropped and frame is nil. ctx bounds the call.
func (dp *DataPlane) proxy(ctx context.Context, info *proto.SandboxInfo, function string, payload []byte) (body []byte, frame *[]byte, err error) {
	req := proto.InvokeSandboxRequest{
		SandboxID: info.ID,
		Function:  function,
		Payload:   payload,
	}
	frame = transport.GetFrame()
	*frame = req.AppendTo(*frame)
	body, err = dp.cfg.Transport.Call(ctx, info.Addr, proto.MethodInvokeSandbox, *frame)
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

// pumpRuntime locks fr and grants whatever queued invocations its
// current endpoint snapshot can absorb.
func (dp *DataPlane) pumpRuntime(fr *functionRuntime) {
	dp.lockRuntime(fr)
	dp.pumpLocked(fr)
	fr.mu.Unlock()
}

// pumpLocked matches queued invocations with free endpoint slots: each
// one at the head of the queue that a slot can be claimed for leaves the
// queue with the slot in its grant channel, where its waiter takes it.
// Granting under fr.mu is what lets abandon, which takes fr.mu too, know
// that no grant is on its way once the pending is out of the queue. The
// send never blocks: a pending is in at most one queue, once, and its
// channel holds one grant. Callers hold fr.mu.
func (dp *DataPlane) pumpLocked(fr *functionRuntime) {
	for len(fr.queue) > 0 {
		snap := fr.snap.Load()
		idx := dp.tryAcquireSnapshot(fr.name, snap)
		if idx < 0 {
			break
		}
		p := fr.queue[0]
		fr.queue[0] = nil // the array outlives the dequeue
		fr.queue = fr.queue[1:]
		fr.queued.Add(-1)
		p.grant <- grant{st: snap.states[idx]}
	}
	if len(fr.queue) == 0 {
		fr.queue = nil
	}
}

// returnSlot gives back a slot on st of fr granted to an invocation that
// will not use it, and re-pumps fr so the next queued invocation gets it.
func (dp *DataPlane) returnSlot(fr *functionRuntime, st *endpointState) {
	st.inFlight.Add(-1)
	dp.pumpRuntime(fr)
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
// function is gone and the pending was failed. Only the pending's waiter
// calls it.
func (dp *DataPlane) requeue(fr *functionRuntime, p *pending) *functionRuntime {
	name := fr.name
	for {
		dp.lockRuntime(fr)
		if !fr.dead {
			break
		}
		fr.mu.Unlock()
		if fr = dp.lookup(name); fr == nil {
			p.grant <- grant{err: deregisteredErr(name)}
			return nil
		}
	}
	defer fr.mu.Unlock()
	p.fr = fr
	fr.queue = append([]*pending{p}, fr.queue...)
	fr.queued.Add(1)
	dp.markActive(fr)
	return fr
}

// abandon takes a pending invocation its waiter stops waiting for (it
// timed out, or the data plane is stopping) out of the queue it was last
// put in, then gives back the slot of any grant that reached it first:
// pumpLocked grants under the same lock, so once the pending is out of
// the queue no grant can follow. Only the pending's waiter calls it.
func (dp *DataPlane) abandon(p *pending) {
	fr := p.fr
	dp.lockRuntime(fr)
	if i := slices.Index(fr.queue, p); i >= 0 {
		fr.queue = slices.Delete(fr.queue, i, i+1) // clears the vacated slot
		if len(fr.queue) == 0 {
			fr.queue = nil
		}
		fr.queued.Add(-1)
	}
	fr.mu.Unlock()
	select {
	case g := <-p.grant:
		if g.st != nil {
			dp.returnSlot(p.fr, g.st)
		}
	default:
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
	dp.cold, dp.coldSpare = dp.coldSpare[:0], nil
	dp.coldMu.Unlock()
	now := dp.clk.Now()
	report := proto.ScalingMetricReport{DataPlane: dp.cfg.ID, Metrics: dp.coldMetrics[:0]}
	for _, fr := range marked {
		// Unmark before reading: an arrival from here on marks again
		// rather than go unreported.
		fr.coldMarked.Store(false)
		report.Metrics = append(report.Metrics, fr.scalingMetric(now))
	}
	dp.sendMetrics(&report, marked)
	// Keep both buffers, emptied, so that they pin no runtime.
	clear(marked)
	clear(report.Metrics)
	dp.coldSpare, dp.coldMetrics = marked[:0], report.Metrics[:0]
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
	frame := transport.GetFrame()
	*frame = report.AppendTo(*frame)
	// Best effort: a missed report only delays autoscaling by one period.
	// The frame goes back to the pool only after a call that succeeded.
	if _, err := dp.cp.Call(ctx, proto.MethodScalingMetric, *frame); err != nil {
		return false
	}
	transport.PutFrame(frame)
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
