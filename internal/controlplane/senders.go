package controlplane

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/transport"
)

// Everything the control plane sends a worker or a data plane on the cold
// path leaves through that peer's one sender: a long-lived goroutine that
// parks between calls and, once woken, drains what its peer is owed in as
// few calls as it can, coalescing whatever arrives while a call is in
// flight into the next one. A worker is owed creates and kills, a data
// plane endpoint updates. A peer's calls never wait behind another peer's,
// and no call runs on a goroutine started for it: a fresh goroutine grows
// its stack through the whole transport and handler chain on every call.
//
// A sender starts with its peer's first enqueue. It stops when the health
// sweep finds it idle for a whole pass, and, once it has drained what it
// holds, when its registry entry is replaced or removed or the control
// plane stops; the next enqueue starts another. A fleet of idle workers
// parks no goroutine.

// outbox is one peer's sender lifecycle. It is guarded by the mutex of the
// registry entry that embeds it, which also guards the work queued for it.
type outbox struct {
	// wake is the running sender's wake-up channel, nil when none runs.
	wake chan struct{}
	// busy is set by every enqueue and every batch the sender takes, and
	// cleared by every health sweep: a sender that no sweep found busy
	// since the last one, and that holds nothing, retires.
	busy bool
	// sending is set while the sender delivers a batch it took: however
	// many sweeps pass during the call, none retires it.
	sending bool
	// gone marks an entry replaced or removed from its registry: its
	// sender exits once it has nothing left to send.
	gone bool
}

// notify records that work was queued and wakes the running sender. When
// none runs it returns the wake channel of a new one, which the caller
// starts once it has released the entry's mutex.
func (o *outbox) notify() chan struct{} {
	o.busy = true
	if o.wake != nil {
		signal(o.wake)
		return nil
	}
	o.wake = make(chan struct{}, 1)
	return o.wake
}

// sweep is the health sweep's visit: a sender that holds nothing, is not
// in a call and has not been busy since the previous visit retires.
func (o *outbox) sweep(empty bool) {
	if o.wake != nil && empty && !o.busy && !o.sending {
		signal(o.wake)
		o.wake = nil
	}
	o.busy = false
}

// retire marks an entry that left its registry: its sender, if one runs,
// drains what is queued and exits.
func (o *outbox) retire() {
	o.gone = true
	if o.wake != nil {
		signal(o.wake)
	}
}

// signal wakes a parked sender; a wake-up already pending covers this one.
func signal(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

// runSender is a sender's loop. take moves the next batch out of the
// peer's queue and reports whether there was one; it runs with mu held.
// send delivers the batch with no lock held. A sender the sweep retired
// leaves whatever was queued since to the sender the enqueue started. When
// the control plane stops, a sender delivers what take still gives it
// before it exits: a worker's creates and kills, as calls already decided,
// but no endpoint update (startEndpointSender).
func (cp *ControlPlane) runSender(mu *sync.Mutex, o *outbox, wake chan struct{}, take func() bool, send func()) {
	defer cp.wg.Done()
	for {
		mu.Lock()
		if o.wake != wake {
			mu.Unlock()
			return
		}
		o.sending = false
		if take() {
			o.busy, o.sending = true, true
			mu.Unlock()
			send()
			continue
		}
		if o.gone {
			o.wake = nil
			mu.Unlock()
			return
		}
		mu.Unlock()
		select {
		case <-cp.stopCh:
			return
		case <-wake:
		}
	}
}

// startSender runs a new sender unless the control plane has stopped.
func (cp *ControlPlane) startSender(mu *sync.Mutex, o *outbox, wake chan struct{}, take func() bool, send func()) {
	select {
	case <-cp.stopCh:
		return
	default:
	}
	cp.wg.Add(1)
	go cp.runSender(mu, o, wake, take, send)
}

// queuedCreate is one placed sandbox waiting in its worker's outbox: the
// sandbox already exists in phaseCreating state and its resources are
// optimistically charged to the worker. decidedAt is when the deciding
// pass began.
type queuedCreate struct {
	req       proto.CreateSandboxRequest
	decidedAt time.Time
}

// enqueueCreate queues one creation on w's sender.
func (cp *ControlPlane) enqueueCreate(w *workerState, c queuedCreate) {
	w.mu.Lock()
	w.creates = append(w.creates, c)
	wake := w.out.notify()
	w.mu.Unlock()
	if wake != nil {
		cp.startWorkerSender(w, wake)
	}
}

// dispatchKills queues teardowns on their workers' senders. A kill for a
// worker no longer registered is dropped: nothing tracks its sandboxes.
func (cp *ControlPlane) dispatchKills(kills []*sandboxState) {
	for _, sb := range kills {
		cp.cTeardowns.Inc()
		if cp.cfg.PersistSandboxState {
			_ = cp.cfg.DB.HDel(hashSandboxes, fmt.Sprintf("%d", sb.id))
		}
		w := cp.getWorker(sb.node)
		if w == nil {
			continue
		}
		w.mu.Lock()
		w.kills = append(w.kills, sb.id)
		wake := w.out.notify()
		w.mu.Unlock()
		if wake != nil {
			cp.startWorkerSender(w, wake)
		}
	}
}

// startWorkerSender runs w's sender. Each batch it takes is every create
// and kill queued, sent as CreateSandboxBatch and KillSandboxBatch calls of
// up to maxBatch entries; the two queues swap with the sender's own, so a
// sender in its steady state allocates no queue.
func (cp *ControlPlane) startWorkerSender(w *workerState, wake chan struct{}) {
	var creates []queuedCreate
	var kills []core.SandboxID
	var batch proto.CreateSandboxBatch
	take := func() bool {
		if len(w.creates)+len(w.kills) == 0 {
			return false
		}
		creates, w.creates = w.creates, creates[:0]
		kills, w.kills = w.kills, kills[:0]
		return true
	}
	send := func() {
		for i := 0; i < len(creates); i += maxBatch {
			cp.sendCreates(w.addr, &batch, creates[i:min(i+maxBatch, len(creates))])
		}
		for i := 0; i < len(kills); i += maxBatch {
			cp.sendKills(w.addr, kills[i:min(i+maxBatch, len(kills))])
		}
		clear(creates)
	}
	cp.startSender(&w.mu, &w.out, wake, take, send)
}

// sendCreates makes one CreateSandboxBatch call, written into batch's
// reused slice, and rolls every sandbox of the chunk back if the worker is
// unreachable. The scheduling latency of each (cold_start_sched_ms) runs
// from its decision to this call, the wait in the outbox included.
func (cp *ControlPlane) sendCreates(addr string, batch *proto.CreateSandboxBatch, chunk []queuedCreate) {
	batch.Creates = batch.Creates[:0]
	for i := range chunk {
		batch.Creates = append(batch.Creates, chunk[i].req)
	}
	payload := batch.Marshal()
	clear(batch.Creates)
	cp.mCreateBatch.ObserveMs(float64(len(chunk)))
	now := cp.clk.Now()
	for i := range chunk {
		cp.mSchedLatency.Observe(now.Sub(chunk[i].decidedAt))
	}
	ctx := transport.NewDeadline(context.Background(), 10*time.Second)
	_, err := cp.cfg.Transport.Call(ctx, addr, proto.MethodCreateSandboxBatch, payload)
	ctx.Stop()
	if err == nil {
		return
	}
	for i := range chunk {
		req := &chunk[i].req
		cp.withFunction(req.Function.Name, func(fs *functionState) {
			delete(fs.sandboxes, req.SandboxID)
		})
		cp.cCreateRPCErrors.Inc()
	}
}

// sendKills makes one KillSandboxBatch call.
func (cp *ControlPlane) sendKills(addr string, ids []core.SandboxID) {
	cp.mKillBatch.ObserveMs(float64(len(ids)))
	batch := proto.KillSandboxBatch{IDs: ids}
	ctx := transport.NewDeadline(context.Background(), 5*time.Second)
	_, _ = cp.cfg.Transport.Call(ctx, addr, proto.MethodKillSandboxBatch, batch.Marshal())
	ctx.Stop()
}

// broadcastEndpoints owes the current ready-endpoint sets of the listed
// functions to every live data plane (paper Table 2, "Add/remove LB
// endpoint"). Each replica's sender delivers them, every update carrying
// the function's full endpoint list, which makes it idempotent.
func (cp *ControlPlane) broadcastEndpoints(functions ...string) {
	if len(functions) == 0 {
		return
	}
	cp.dpMu.RLock()
	defer cp.dpMu.RUnlock()
	for _, st := range cp.dataplanes {
		cp.oweEndpoints(st, functions)
	}
}

// oweEndpoints adds functions to the set st is owed and wakes st's
// sender. A replica the sweep has pruned is owed nothing: its revival owes
// it every function.
func (cp *ControlPlane) oweEndpoints(st *dataPlaneState, functions []string) {
	if len(functions) == 0 {
		return
	}
	st.mu.Lock()
	if !st.healthy {
		st.mu.Unlock()
		return
	}
	if st.owed == nil {
		st.owed = make(map[string]struct{}, len(functions))
	}
	for _, fn := range functions {
		st.owed[fn] = struct{}{}
	}
	wake := st.out.notify()
	st.mu.Unlock()
	if wake != nil {
		cp.startEndpointSender(st, wake)
	}
}

// startEndpointSender runs st's sender. Each batch it takes is up to
// maxBatch of the functions st is owed, written at send time from each
// function's current state into one UpdateEndpointsBatch call. Its names
// and payload buffer are kept from one call to the next. A stopping
// control plane drops what st is owed, so its Stop waits for one endpoint
// call per data plane at most.
func (cp *ControlPlane) startEndpointSender(st *dataPlaneState, wake chan struct{}) {
	var names []string
	var buf []byte
	var w proto.EndpointBatchWriter
	take := func() bool {
		select {
		case <-cp.stopCh:
			clear(st.owed)
			return false
		default:
		}
		for fn := range st.owed {
			if len(names) == maxBatch {
				break
			}
			names = append(names, fn)
			delete(st.owed, fn)
		}
		return len(names) > 0
	}
	send := func() {
		w.Reset(buf)
		for _, fn := range names {
			cp.writeEndpointUpdate(&w, fn)
		}
		clear(names)
		names, buf = names[:0], w.Bytes()
		if w.Updates() == 0 {
			return
		}
		cp.mEndpointFanout.ObserveMs(float64(w.Updates()))
		ctx := transport.NewDeadline(context.Background(), 2*time.Second)
		if _, err := cp.cfg.Transport.Call(ctx, st.addr, proto.MethodUpdateEndpointsBatch, buf); err != nil {
			buf = nil // a failed call's buffer is not reused
		}
		ctx.Stop()
	}
	cp.startSender(&st.mu, &st.out, wake, take, send)
}

// writeEndpointUpdate writes function's versioned ready-endpoint set into
// w, and nothing when the function is not registered: data planes that
// have dropped it drop an update for it too. Versions are minted per
// function under its shard lock, so updates for unrelated functions never
// serialize against each other.
func (cp *ControlPlane) writeEndpointUpdate(w *proto.EndpointBatchWriter, function string) {
	sh := cp.shardFor(function)
	cp.lockShard(sh)
	defer sh.mu.Unlock()
	fs := sh.fns[function]
	if fs == nil {
		return
	}
	fs.epSeq++
	// Leadership epoch in the high bits keeps versions monotonic across
	// failovers, where per-function sequences restart.
	w.BeginUpdate(function, cp.epoch.Load()<<32|fs.epSeq)
	for _, sb := range fs.sandboxes {
		if sb.phase == phaseReady {
			w.Endpoint(&proto.SandboxInfo{ID: sb.id, Function: function, Node: sb.node, Addr: sb.workerAddr, State: core.SandboxReady})
		}
	}
	w.EndUpdate()
}
