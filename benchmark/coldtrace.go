package main

import (
	"fmt"
	"sync"

	"dirigent/internal/core"
	"dirigent/internal/proto"
)

// coldStart holds the control-plane events of one cold start, all in
// nanoseconds since the recorder's base; zero means not seen yet.
//
//	arrive        invocation reaches its data plane (from the opRecord)
//	metricSent    that data plane's next scaling-metric report leaves,
//	metricDone    and returns: the control plane has recorded the demand
//	createSent    the control plane sends the create RPC to a worker
//	readySent     the worker sends the ready RPC to the control plane
//	learnStart/End[i]  data plane i handles the endpoint update
//	proxied       the data plane sends the invocation to the worker
type coldStart struct {
	metricSent, metricDone int64
	createSent             int64
	sandbox                core.SandboxID
	readySent              int64
	learnStart, learnEnd   [numDataPlanes]int64
	// Set when the invocation has returned, which can be before the other
	// data planes have handled their copy of the endpoint update.
	returned        bool
	node            int
	arrive, proxied int64
}

// coldTracker joins the control-plane spans of cold starts by function
// name and sandbox ID. The workload visits a function again only long
// after its sandbox is gone, so a function has at most one cold start
// open at a time.
type coldTracker struct {
	mu   sync.Mutex
	open map[string]*coldStart

	metricWait, autoscaleWait, create, fanout, dequeue hist
	joined, unjoined                                   int64
	createBatches, creates                             int64
	readyBatches, readies                              int64
}

func newColdTracker() *coldTracker {
	return &coldTracker{open: make(map[string]*coldStart)}
}

func (c *coldTracker) observe(t *tracedTransport, sd side, m int, payload []byte, s span) {
	switch {
	case t.tier == tierDataPlane && sd == sideCall && m == methodScalingMetric:
		report, err := proto.UnmarshalScalingMetricReport(payload)
		if err != nil {
			return
		}
		c.mu.Lock()
		for i := range report.Metrics {
			mm := &report.Metrics[i]
			if mm.InFlight+mm.QueueDepth == 0 {
				continue
			}
			cs := c.open[mm.Function]
			if cs != nil && cs.returned {
				// The last cold start never saw all its events.
				c.unjoined++
				cs = nil
			}
			if cs == nil {
				c.open[mm.Function] = &coldStart{metricSent: s.start, metricDone: s.end}
			}
		}
		c.mu.Unlock()

	case t.tier == tierControlPlane && sd == sideCall && (m == methodCreateSandbox || m == methodCreateSandboxBatch):
		var creates []proto.CreateSandboxRequest
		if m == methodCreateSandbox {
			if req, err := proto.UnmarshalCreateSandboxRequest(payload); err == nil {
				creates = []proto.CreateSandboxRequest{*req}
			}
		} else if batch, err := proto.UnmarshalCreateSandboxBatch(payload); err == nil {
			creates = batch.Creates
		}
		c.mu.Lock()
		c.createBatches++
		c.creates += int64(len(creates))
		for i := range creates {
			if cs := c.open[creates[i].Function.Name]; cs != nil && cs.createSent == 0 {
				cs.createSent, cs.sandbox = s.start, creates[i].SandboxID
			}
		}
		c.mu.Unlock()

	case t.tier == tierWorker && sd == sideCall && (m == methodSandboxReady || m == methodSandboxReadyBatch):
		var events []proto.SandboxEvent
		if m == methodSandboxReady {
			if ev, err := proto.UnmarshalSandboxEvent(payload); err == nil {
				events = []proto.SandboxEvent{*ev}
			}
		} else if batch, err := proto.UnmarshalSandboxEventBatch(payload); err == nil {
			events = batch.Events
		}
		c.mu.Lock()
		c.readyBatches++
		c.readies += int64(len(events))
		for i := range events {
			if cs := c.open[events[i].Function]; cs != nil && cs.sandbox == events[i].SandboxID && cs.readySent == 0 {
				cs.readySent = s.start
			}
		}
		c.mu.Unlock()

	case t.tier == tierDataPlane && sd == sideHandle && (m == methodUpdateEndpoints || m == methodUpdateEndpointsBatch):
		var updates []proto.EndpointUpdate
		if m == methodUpdateEndpoints {
			if up, err := proto.UnmarshalEndpointUpdate(payload); err == nil {
				updates = []proto.EndpointUpdate{*up}
			}
		} else if batch, err := proto.UnmarshalEndpointUpdateBatch(payload); err == nil {
			updates = batch.Updates
		}
		c.mu.Lock()
		for i := range updates {
			cs := c.open[updates[i].Function]
			if cs == nil || cs.sandbox == 0 || cs.learnEnd[t.node] != 0 {
				continue
			}
			for _, ep := range updates[i].Endpoints {
				if ep.ID == cs.sandbox {
					cs.learnStart[t.node], cs.learnEnd[t.node] = s.start, s.end
					c.foldLocked(t.rec, updates[i].Function, cs)
					break
				}
			}
		}
		c.mu.Unlock()
	}
}

// finish notes that function's cold invocation has returned: node is the
// data plane that served it, arrive and proxied when it got there and when
// it left for the worker.
func (c *coldTracker) finish(r *recorder, function string, node int, arrive, proxied int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs := c.open[function]
	if cs == nil || cs.returned || node < 0 || node >= numDataPlanes {
		c.unjoined++
		return
	}
	cs.returned, cs.node, cs.arrive, cs.proxied = true, node, arrive, proxied
	c.foldLocked(r, function, cs)
}

// foldLocked closes a cold start once its invocation has returned and
// every data plane has handled the endpoint update, and, if the events
// happened in order, folds the stages:
//
//	metric_wait     arrive -> metricSent      (the metric timer)
//	autoscale_wait  metricDone -> createSent  (the autoscale tick, decision, placement)
//	create          createSent -> readySent   (worker and sandbox runtime)
//	ready_fanout    readySent -> last learnEnd
//	dequeue         learnStart on the serving data plane -> proxied
//
// The stages tile arrive..proxied except for the report RPC itself and
// the overlap between the serving data plane's update and the last one.
func (c *coldTracker) foldLocked(r *recorder, function string, cs *coldStart) {
	if !cs.returned {
		return
	}
	last := int64(0)
	for _, e := range cs.learnEnd {
		if e == 0 {
			return
		}
		last = max(last, e)
	}
	delete(c.open, function)
	learned := cs.learnStart[cs.node]
	if !(cs.arrive <= cs.metricSent && cs.metricSent <= cs.createSent && cs.createSent <= cs.readySent &&
		cs.readySent <= learned && learned <= cs.proxied) {
		c.unjoined++
		return
	}
	c.joined++
	c.metricWait.add(cs.metricSent - cs.arrive)
	c.autoscaleWait.add(max(0, cs.createSent-cs.metricDone))
	c.create.add(cs.readySent - cs.createSent)
	c.fanout.add(last - cs.readySent)
	c.dequeue.add(cs.proxied - learned)

	id := fmt.Sprintf("%s/%d", function, cs.sandbox)
	mk := func(name, tierName, method string, start, end int64, parent string) rawSpan {
		return rawSpan{Name: name, Tier: tierName, Method: method, StartNs: start, EndNs: end, ID: id, Parent: parent}
	}
	r.keepRaw(
		mk("queue_wait", "dataplane", proto.MethodInvoke, cs.arrive, cs.proxied, ""),
		mk("metric_wait", "dataplane", proto.MethodScalingMetric, cs.arrive, cs.metricSent, "queue_wait"),
		mk("metric_report", "dataplane", proto.MethodScalingMetric, cs.metricSent, cs.metricDone, "queue_wait"),
		mk("autoscale_wait", "controlplane", proto.MethodCreateSandboxBatch, cs.metricDone, cs.createSent, "queue_wait"),
		mk("create", "worker", proto.MethodSandboxReady, cs.createSent, cs.readySent, "queue_wait"),
		mk("ready_fanout", "controlplane", proto.MethodUpdateEndpointsBatch, cs.readySent, last, "queue_wait"),
		mk("dequeue", "dataplane", proto.MethodInvokeSandbox, learned, cs.proxied, "queue_wait"),
	)
}
