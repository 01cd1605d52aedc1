package proto

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"dirigent/internal/core"
)

func TestInvokeRequestRoundTrip(t *testing.T) {
	m := &InvokeRequest{Function: "fn", Async: true, Payload: []byte{1, 2, 3}}
	got, err := UnmarshalInvokeRequest(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Function != m.Function || got.Async != m.Async || !bytes.Equal(got.Payload, m.Payload) {
		t.Errorf("round trip: %+v", got)
	}
}

func TestInvokeResponseRoundTrip(t *testing.T) {
	m := &InvokeResponse{ColdStart: true, SchedulingLatencyUs: 12345, Body: []byte("out")}
	got, err := UnmarshalInvokeResponse(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.ColdStart != m.ColdStart || got.SchedulingLatencyUs != m.SchedulingLatencyUs || !bytes.Equal(got.Body, m.Body) {
		t.Errorf("round trip: %+v", got)
	}
}

func TestCreateSandboxRequestRoundTrip(t *testing.T) {
	m := &CreateSandboxRequest{
		SandboxID: 99,
		Function: core.Function{
			Name: "f", Image: "img", Port: 80, Runtime: "containerd",
			Scaling: core.DefaultScalingConfig(),
		},
	}
	got, err := UnmarshalCreateSandboxRequest(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.SandboxID != 99 || got.Function != m.Function {
		t.Errorf("round trip: %+v", got)
	}
}

func TestSandboxListRoundTrip(t *testing.T) {
	m := &SandboxList{Sandboxes: []SandboxInfo{
		{ID: 1, Function: "a", Node: 2, Addr: "10.0.0.1:9000", State: core.SandboxReady},
		{ID: 2, Function: "b", Node: 3, Addr: "10.0.0.2:9000", State: core.SandboxCreating},
	}}
	got, err := UnmarshalSandboxList(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sandboxes) != 2 || got.Sandboxes[0] != m.Sandboxes[0] || got.Sandboxes[1] != m.Sandboxes[1] {
		t.Errorf("round trip: %+v", got)
	}
}

func TestEmptySandboxList(t *testing.T) {
	m := &SandboxList{}
	got, err := UnmarshalSandboxList(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sandboxes) != 0 {
		t.Errorf("round trip: %+v", got)
	}
}

func TestEndpointUpdateRoundTrip(t *testing.T) {
	m := &EndpointUpdate{
		Function: "f",
		Version:  1<<32 | 7,
		Endpoints: []SandboxInfo{
			{ID: 5, Function: "f", Node: 1, Addr: "w:9000", State: core.SandboxReady},
		},
	}
	got, err := UnmarshalEndpointUpdate(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Function != "f" || got.Version != m.Version || len(got.Endpoints) != 1 || got.Endpoints[0] != m.Endpoints[0] {
		t.Errorf("round trip: %+v", got)
	}
}

func TestScalingMetricReportRoundTrip(t *testing.T) {
	at := time.Unix(1234, 567_000_000)
	m := &ScalingMetricReport{
		DataPlane: 7,
		Metrics: []core.ScalingMetric{
			{Function: "f1", InFlight: 3, QueueDepth: 2, At: at},
			{Function: "f2", InFlight: 0, QueueDepth: 0, At: at.Add(time.Second)},
		},
	}
	got, err := UnmarshalScalingMetricReport(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.DataPlane != 7 || len(got.Metrics) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range m.Metrics {
		a, b := m.Metrics[i], got.Metrics[i]
		if a.Function != b.Function || a.InFlight != b.InFlight ||
			a.QueueDepth != b.QueueDepth || !a.At.Equal(b.At) {
			t.Errorf("metric %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestVisitScalingMetricReport: the visitor yields what Unmarshal does,
// with each name a sub-slice of the payload, and a report cut anywhere is
// refused before the first metric is yielded.
func TestVisitScalingMetricReport(t *testing.T) {
	at := time.Unix(1234, 567_000_000)
	m := &ScalingMetricReport{DataPlane: 7}
	for i := 0; i < 5; i++ {
		m.Metrics = append(m.Metrics, core.ScalingMetric{
			Function: fmt.Sprintf("fn-%d", i), InFlight: i, QueueDepth: 2 * i, At: at,
		})
	}
	payload := m.Marshal()
	i := 0
	id, err := VisitScalingMetricReport(payload, func(dp core.DataPlaneID, function []byte, inFlight, queueDepth int, got time.Time) {
		want := m.Metrics[i]
		if dp != 7 {
			t.Errorf("metric %d: handed data plane %d, want 7", i, dp)
		}
		if string(function) != want.Function || inFlight != want.InFlight || queueDepth != want.QueueDepth || !got.Equal(at) {
			t.Errorf("metric %d: %s %d %d %v, want %+v", i, function, inFlight, queueDepth, got, want)
		}
		if off := bytes.Index(payload, function); off < 0 || &payload[off] != &function[0] {
			t.Errorf("metric %d: name is a copy, not a sub-slice of the payload", i)
		}
		i++
	})
	if err != nil || id != 7 || i != len(m.Metrics) {
		t.Fatalf("visit: id=%d metrics=%d err=%v", id, i, err)
	}
	for cut := 0; cut < len(payload); cut++ {
		_, err := VisitScalingMetricReport(payload[:cut], func(core.DataPlaneID, []byte, int, int, time.Time) {
			t.Fatalf("cut at %d of %d: a metric was yielded from a malformed report", cut, len(payload))
		})
		if err == nil {
			t.Fatalf("cut at %d of %d accepted", cut, len(payload))
		}
		if got, err := UnmarshalScalingMetricReport(payload[:cut]); err == nil || len(got.Metrics) != 0 {
			t.Fatalf("cut at %d: Unmarshal returned %d metrics, err=%v", cut, len(got.Metrics), err)
		}
	}
}

// FuzzVisitScalingMetricReport holds the decoder the control plane runs on
// every report from every data plane to three properties: no input panics
// it, it yields exactly what UnmarshalScalingMetricReport returns, and an
// input it refuses yields nothing.
func FuzzVisitScalingMetricReport(f *testing.F) {
	at := time.Unix(1234, 567_000_000)
	for _, m := range []ScalingMetricReport{
		{},
		{DataPlane: 3, Metrics: []core.ScalingMetric{{Function: "fn-0000", InFlight: 2, QueueDepth: 1, At: at}}},
		{DataPlane: 1, Metrics: []core.ScalingMetric{{Function: "a"}, {Function: "", InFlight: -1, At: at}, {Function: "fn-0767", QueueDepth: 1 << 40}}},
	} {
		f.Add(m.Marshal())
	}
	f.Add([]byte{0, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		var visited []core.ScalingMetric
		var dps []core.DataPlaneID
		id, err := VisitScalingMetricReport(b, func(dp core.DataPlaneID, function []byte, inFlight, queueDepth int, at time.Time) {
			dps = append(dps, dp)
			visited = append(visited, core.ScalingMetric{Function: string(function), InFlight: inFlight, QueueDepth: queueDepth, At: at})
		})
		m, uerr := UnmarshalScalingMetricReport(b)
		if (err == nil) != (uerr == nil) {
			t.Fatalf("Visit says %v, Unmarshal says %v", err, uerr)
		}
		if err != nil {
			if len(visited) != 0 {
				t.Fatalf("a refused report visited %d metrics", len(visited))
			}
			return
		}
		if id != m.DataPlane || len(visited) != len(m.Metrics) {
			t.Fatalf("Visit yields data plane %d and %d metrics, Unmarshal %d and %d", id, len(visited), m.DataPlane, len(m.Metrics))
		}
		for i, v := range visited {
			u := m.Metrics[i]
			if dps[i] != id {
				t.Fatalf("metric %d: visited with data plane %d, the report's is %d", i, dps[i], id)
			}
			if v.Function != u.Function || v.InFlight != u.InFlight || v.QueueDepth != u.QueueDepth || !v.At.Equal(u.At) {
				t.Fatalf("metric %d: Visit %+v, Unmarshal %+v", i, v, u)
			}
		}
	})
}

func TestWorkerHeartbeatRoundTrip(t *testing.T) {
	m := &WorkerHeartbeat{
		Node: 4,
		Util: core.NodeUtilization{
			Node: 4, CPUMilliUsed: 500, MemoryMBUsed: 1024, SandboxCount: 3, CreationQueue: 1,
			CacheDigest: []uint64{7, 99, 12345678901234567},
		},
	}
	got, err := UnmarshalWorkerHeartbeat(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != m.Node || !reflect.DeepEqual(got.Util, m.Util) {
		t.Errorf("round trip: %+v", got)
	}

	// A heartbeat with no cached images round-trips to a nil digest.
	bare := &WorkerHeartbeat{Node: 5, Util: core.NodeUtilization{Node: 5}}
	got, err = UnmarshalWorkerHeartbeat(bare.Marshal())
	if err != nil || got.Util.CacheDigest != nil {
		t.Errorf("bare heartbeat: %v %+v", err, got)
	}
}

func TestRegisterWorkerRoundTrip(t *testing.T) {
	m := &RegisterWorkerRequest{Worker: core.WorkerNode{ID: 1, Name: "w", IP: "10.0.0.1", Port: 9000, CPUMilli: 10000, MemoryMB: 65536}}
	got, err := UnmarshalRegisterWorkerRequest(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Worker != m.Worker {
		t.Errorf("round trip: %+v", got)
	}
}

func TestRegisterDataPlaneRoundTrip(t *testing.T) {
	m := &RegisterDataPlaneRequest{DataPlane: core.DataPlane{ID: 2, IP: "dp0", Port: 8000}}
	got, err := UnmarshalRegisterDataPlaneRequest(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.DataPlane != m.DataPlane {
		t.Errorf("round trip: %+v", got)
	}
}

func TestSandboxEventRoundTrip(t *testing.T) {
	m := &SandboxEvent{SandboxID: 8, Function: "f", Node: 2, Addr: "w:9000"}
	got, err := UnmarshalSandboxEvent(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Errorf("round trip: %+v", got)
	}
}

func TestFunctionListRoundTrip(t *testing.T) {
	m := &FunctionList{Functions: []core.Function{
		{Name: "a", Image: "img-a", Port: 1, Scaling: core.DefaultScalingConfig()},
		{Name: "b", Image: "img-b", Port: 2, Runtime: "firecracker", Scaling: core.DefaultScalingConfig()},
	}}
	got, err := UnmarshalFunctionList(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Functions) != 2 || got.Functions[0] != m.Functions[0] || got.Functions[1] != m.Functions[1] {
		t.Errorf("round trip: %+v", got)
	}
}

// TestFunctionDeltaMatchesMarshal: a registration's delta, framed around
// the record the control plane persists, is the one-function list Marshal
// writes, byte for byte.
func TestFunctionDeltaMatchesMarshal(t *testing.T) {
	for _, f := range []core.Function{
		{Name: "a", Image: "img-a", Port: 1, Scaling: core.DefaultScalingConfig()},
		{Name: "fn-0767", Image: "registry.local/fn-0767", Port: 8080, Runtime: "firecracker", Scaling: core.DefaultScalingConfig()},
		{},
	} {
		list := FunctionList{Functions: []core.Function{f}}
		if got, want := FunctionDelta(core.MarshalFunction(&f)), list.Marshal(); !bytes.Equal(got, want) {
			t.Errorf("%q: delta %x, Marshal %x", f.Name, got, want)
		}
	}
}

// FuzzVisitFunctionList holds the in-place decoder a data plane runs on
// every registration delta and sync to UnmarshalFunctionList: it accepts
// exactly the inputs that accepts, yields the same names and target
// concurrencies, and visits nothing of an input it refuses.
func FuzzVisitFunctionList(f *testing.F) {
	scaling := core.DefaultScalingConfig()
	scaling.TargetConcurrency = 4
	for _, m := range []FunctionList{
		{},
		{Functions: []core.Function{{Name: "fn-0000", Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()}}},
		{Functions: []core.Function{{Name: "a", Runtime: "firecracker", Scaling: scaling}, {}, {Name: "fn-0767", Image: "registry.local/fn-0767"}}},
	} {
		f.Add(m.Marshal())
	}
	f.Add([]byte{1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		type entry struct {
			name string
			tc   uint64
		}
		var visited []entry
		err := VisitFunctionList(b, func(name []byte, targetConcurrency float64) {
			visited = append(visited, entry{string(name), math.Float64bits(targetConcurrency)})
		})
		m, uerr := UnmarshalFunctionList(b)
		if (err == nil) != (uerr == nil) {
			t.Fatalf("Visit says %v, Unmarshal says %v", err, uerr)
		}
		if err != nil {
			if len(visited) != 0 {
				t.Fatalf("a refused list visited %d functions", len(visited))
			}
			return
		}
		if len(visited) != len(m.Functions) {
			t.Fatalf("Visit yields %d functions, Unmarshal %d", len(visited), len(m.Functions))
		}
		for i, v := range visited {
			u := &m.Functions[i]
			if v.name != u.Name || v.tc != math.Float64bits(u.Scaling.TargetConcurrency) {
				t.Fatalf("function %d: Visit %q at %v, Unmarshal %q at %v", i, v.name, math.Float64frombits(v.tc), u.Name, u.Scaling.TargetConcurrency)
			}
		}
	})
}

func TestVoteAndPingRoundTrip(t *testing.T) {
	vr := &VoteRequest{Term: 9, Candidate: "cp1"}
	gotVR, err := UnmarshalVoteRequest(vr.Marshal())
	if err != nil || *gotVR != *vr {
		t.Errorf("vote request: %+v, %v", gotVR, err)
	}
	resp := &VoteResponse{Term: 9, Granted: true}
	gotResp, err := UnmarshalVoteResponse(resp.Marshal())
	if err != nil || *gotResp != *resp {
		t.Errorf("vote response: %+v, %v", gotResp, err)
	}
	// The leader's heartbeat is an AppendEntries with no entries.
	ping := &AppendEntriesRequest{Term: 10, Leader: "cp2", PrevIndex: 7, PrevTerm: 9, CommitIndex: 6}
	gotPing, err := UnmarshalAppendEntriesRequest(ping.Marshal())
	if err != nil || gotPing.Term != ping.Term || gotPing.Leader != ping.Leader || gotPing.PrevIndex != ping.PrevIndex ||
		gotPing.PrevTerm != ping.PrevTerm || gotPing.CommitIndex != ping.CommitIndex || len(gotPing.Entries) != 0 {
		t.Errorf("heartbeat: %+v, %v", gotPing, err)
	}
}

func TestInvokeSandboxRoundTrip(t *testing.T) {
	m := &InvokeSandboxRequest{SandboxID: 11, Function: "f", Payload: []byte("p")}
	got, err := UnmarshalInvokeSandboxRequest(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.SandboxID != m.SandboxID || got.Function != m.Function || !bytes.Equal(got.Payload, m.Payload) {
		t.Errorf("round trip: %+v", got)
	}
}

func TestTruncatedMessagesError(t *testing.T) {
	full := (&SandboxList{Sandboxes: []SandboxInfo{{ID: 1, Function: "f", Addr: "a"}}}).Marshal()
	for cut := 1; cut < len(full); cut++ {
		if _, err := UnmarshalSandboxList(full[:cut]); err == nil {
			// Some prefixes decode as shorter valid lists (count prefix
			// zero), which is acceptable; a cut inside a record must err.
			if cut > 4 {
				t.Errorf("truncation at %d/%d not detected", cut, len(full))
			}
		}
	}
}

// TestQuickInvokeRequestRoundTrip property-tests invocation framing.
func TestQuickInvokeRequestRoundTrip(t *testing.T) {
	f := func(fn string, async bool, payload []byte) bool {
		if len(fn) > 60000 {
			return true
		}
		m := &InvokeRequest{Function: fn, Async: async, Payload: payload}
		got, err := UnmarshalInvokeRequest(m.Marshal())
		if err != nil {
			return false
		}
		return got.Function == fn && got.Async == async && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCreateSandboxBatchRoundTrip(t *testing.T) {
	m := &CreateSandboxBatch{}
	for i := 0; i < 3; i++ {
		m.Creates = append(m.Creates, CreateSandboxRequest{
			SandboxID: core.SandboxID(100 + i),
			Function: core.Function{
				Name: "f", Image: "img", Port: 80, Runtime: "containerd",
				Scaling: core.DefaultScalingConfig(),
			},
		})
	}
	got, err := UnmarshalCreateSandboxBatch(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Creates) != 3 {
		t.Fatalf("round trip kept %d creates, want 3", len(got.Creates))
	}
	for i := range m.Creates {
		if got.Creates[i].SandboxID != m.Creates[i].SandboxID || got.Creates[i].Function != m.Creates[i].Function {
			t.Errorf("create %d: %+v", i, got.Creates[i])
		}
	}
	empty, err := UnmarshalCreateSandboxBatch((&CreateSandboxBatch{}).Marshal())
	if err != nil || len(empty.Creates) != 0 {
		t.Errorf("empty batch: %v %+v", err, empty)
	}
}

func TestSandboxEventBatchRoundTrip(t *testing.T) {
	m := &SandboxEventBatch{Events: []SandboxEvent{
		{SandboxID: 1, Function: "a", Node: 2, Addr: "10.0.0.1:9000"},
		{SandboxID: 2, Function: "b", Node: 3, Addr: "10.0.0.2:9000"},
	}}
	got, err := UnmarshalSandboxEventBatch(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 2 || got.Events[0] != m.Events[0] || got.Events[1] != m.Events[1] {
		t.Errorf("round trip: %+v", got)
	}
}

func TestEndpointUpdateBatchRoundTrip(t *testing.T) {
	m := &EndpointUpdateBatch{Updates: []EndpointUpdate{
		{Function: "a", Version: 7, Endpoints: []SandboxInfo{
			{ID: 1, Function: "a", Node: 2, Addr: "10.0.0.1:9000", State: core.SandboxReady},
		}},
		{Function: "b", Version: 9}, // empty endpoint set (drain)
	}}
	got, err := UnmarshalEndpointUpdateBatch(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Updates) != 2 {
		t.Fatalf("round trip kept %d updates, want 2", len(got.Updates))
	}
	if got.Updates[0].Function != "a" || got.Updates[0].Version != 7 ||
		len(got.Updates[0].Endpoints) != 1 || got.Updates[0].Endpoints[0] != m.Updates[0].Endpoints[0] {
		t.Errorf("update 0: %+v", got.Updates[0])
	}
	if got.Updates[1].Function != "b" || got.Updates[1].Version != 9 || len(got.Updates[1].Endpoints) != 0 {
		t.Errorf("update 1: %+v", got.Updates[1])
	}
}

func TestTruncatedBatchMessagesError(t *testing.T) {
	full := (&CreateSandboxBatch{Creates: []CreateSandboxRequest{{
		SandboxID: 1,
		Function:  core.Function{Name: "f", Image: "i", Port: 1, Scaling: core.DefaultScalingConfig()},
	}}}).Marshal()
	if _, err := UnmarshalCreateSandboxBatch(full[:len(full)-3]); err == nil {
		t.Errorf("truncated CreateSandboxBatch accepted")
	}
	evb := (&SandboxEventBatch{Events: []SandboxEvent{{SandboxID: 1, Function: "f", Node: 1, Addr: "a:1"}}}).Marshal()
	if _, err := UnmarshalSandboxEventBatch(evb[:len(evb)-2]); err == nil {
		t.Errorf("truncated SandboxEventBatch accepted")
	}
}

func TestDataPlaneHeartbeatRoundTrip(t *testing.T) {
	m := &DataPlaneHeartbeat{DataPlane: core.DataPlane{ID: 3, IP: "10.0.0.9", Port: 8000}}
	got, err := UnmarshalDataPlaneHeartbeat(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.DataPlane != m.DataPlane {
		t.Errorf("round trip: %+v", got.DataPlane)
	}
}

func TestDataPlaneListRoundTrip(t *testing.T) {
	m := &DataPlaneList{DataPlanes: []core.DataPlane{
		{ID: 1, IP: "10.0.0.1", Port: 8000},
		{ID: 2, IP: "10.0.0.2", Port: 8001},
	}}
	got, err := UnmarshalDataPlaneList(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.DataPlanes) != 2 || got.DataPlanes[0] != m.DataPlanes[0] || got.DataPlanes[1] != m.DataPlanes[1] {
		t.Errorf("round trip: %+v", got.DataPlanes)
	}
	empty, err := UnmarshalDataPlaneList((&DataPlaneList{}).Marshal())
	if err != nil || len(empty.DataPlanes) != 0 {
		t.Errorf("empty list round trip: %+v, %v", empty, err)
	}
	if _, err := UnmarshalDataPlaneList(m.Marshal()[:3]); err == nil {
		t.Errorf("truncated DataPlaneList accepted")
	}
}

func TestKillSandboxBatchRoundTrip(t *testing.T) {
	m := &KillSandboxBatch{IDs: []core.SandboxID{7, 9, 4096}}
	got, err := UnmarshalKillSandboxBatch(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) != 3 || got.IDs[0] != 7 || got.IDs[1] != 9 || got.IDs[2] != 4096 {
		t.Errorf("round trip: %+v", got.IDs)
	}
	if _, err := UnmarshalKillSandboxBatch(m.Marshal()[:6]); err == nil {
		t.Errorf("truncated KillSandboxBatch accepted")
	}
}

func TestWorkerHeartbeatBatchRoundTrip(t *testing.T) {
	m := &WorkerHeartbeatBatch{
		Relay:   "relay-3",
		Missing: []core.NodeID{9, 12},
	}
	for i := 0; i < 3; i++ {
		id := core.NodeID(40 + i)
		m.Beats = append(m.Beats, WorkerHeartbeat{
			Node: id,
			Util: core.NodeUtilization{
				Node: id, CPUMilliUsed: 100 * i, MemoryMBUsed: 256 * i, SandboxCount: i,
				CacheDigest: []uint64{uint64(i), uint64(1000 + i)},
			},
		})
	}
	got, err := UnmarshalWorkerHeartbeatBatch(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Relay != m.Relay {
		t.Errorf("relay: %q", got.Relay)
	}
	if len(got.Missing) != 2 || got.Missing[0] != 9 || got.Missing[1] != 12 {
		t.Errorf("missing: %v", got.Missing)
	}
	if len(got.Beats) != 3 {
		t.Fatalf("round trip kept %d beats, want 3", len(got.Beats))
	}
	for i := range m.Beats {
		if got.Beats[i].Node != m.Beats[i].Node || !reflect.DeepEqual(got.Beats[i].Util, m.Beats[i].Util) {
			t.Errorf("beat %d: %+v", i, got.Beats[i])
		}
	}
	empty, err := UnmarshalWorkerHeartbeatBatch((&WorkerHeartbeatBatch{Relay: "r"}).Marshal())
	if err != nil || len(empty.Beats) != 0 || len(empty.Missing) != 0 {
		t.Errorf("empty batch: %v %+v", err, empty)
	}
}

func TestRegisterWorkerBatchRoundTrip(t *testing.T) {
	m := &RegisterWorkerBatch{Relay: "relay-1"}
	for i := 0; i < 3; i++ {
		m.Workers = append(m.Workers, core.WorkerNode{
			ID: core.NodeID(i + 1), Name: fmt.Sprintf("w%d", i+1),
			IP: "10.0.0.1", Port: 9000, CPUMilli: 8000, MemoryMB: 32768,
		})
	}
	got, err := UnmarshalRegisterWorkerBatch(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Relay != m.Relay || len(got.Workers) != 3 {
		t.Fatalf("round trip: relay=%q workers=%d", got.Relay, len(got.Workers))
	}
	for i := range m.Workers {
		if got.Workers[i] != m.Workers[i] {
			t.Errorf("worker %d: %+v", i, got.Workers[i])
		}
	}
}

func TestTruncatedRelayBatchMessagesError(t *testing.T) {
	hb := (&WorkerHeartbeatBatch{Relay: "r", Beats: []WorkerHeartbeat{{Node: 1}}}).Marshal()
	if _, err := UnmarshalWorkerHeartbeatBatch(hb[:len(hb)-3]); err == nil {
		t.Errorf("truncated WorkerHeartbeatBatch accepted")
	}
	reg := (&RegisterWorkerBatch{Relay: "r", Workers: []core.WorkerNode{{ID: 1, Name: "w"}}}).Marshal()
	if _, err := UnmarshalRegisterWorkerBatch(reg[:len(reg)-2]); err == nil {
		t.Errorf("truncated RegisterWorkerBatch accepted")
	}
}

func TestRegisterDataPlaneRequestRoundTrip(t *testing.T) {
	m := &RegisterDataPlaneRequest{
		DataPlane:   core.DataPlane{ID: 3, IP: "10.88.0.3", Port: 8000},
		Durable:     true,
		AsyncHashes: []string{"async-queue-0", "async-queue-1"},
	}
	got, err := UnmarshalRegisterDataPlaneRequest(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip: %+v", got)
	}
	// Non-durable replicas advertise no hashes.
	plain, err := UnmarshalRegisterDataPlaneRequest((&RegisterDataPlaneRequest{
		DataPlane: core.DataPlane{ID: 1},
	}).Marshal())
	if err != nil || plain.Durable || len(plain.AsyncHashes) != 0 {
		t.Errorf("plain register: %v %+v", err, plain)
	}
}

func TestDataPlaneEpochAckRoundTrip(t *testing.T) {
	got, err := UnmarshalDataPlaneEpochAck((&DataPlaneEpochAck{Epoch: 42}).Marshal())
	if err != nil || got.Epoch != 42 {
		t.Fatalf("round trip: %v %+v", err, got)
	}
	// Empty reply (pre-epoch control plane) decodes as "no epoch".
	empty, err := UnmarshalDataPlaneEpochAck(nil)
	if err != nil || empty.Epoch != 0 {
		t.Fatalf("empty ack: %v %+v", err, empty)
	}
}

func TestAsyncLeaseRoundTrip(t *testing.T) {
	m := &AsyncLease{Owner: 2, Epoch: 9, Hashes: []string{"async-queue", "async-queue-7"}}
	got, err := UnmarshalAsyncLease(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip: %+v", got)
	}
	b := m.Marshal()
	if _, err := UnmarshalAsyncLease(b[:len(b)-3]); err == nil {
		t.Errorf("truncated AsyncLease accepted")
	}

	rv := &AsyncLeaseRevoke{Owner: 2, Epoch: 10}
	gotRv, err := UnmarshalAsyncLeaseRevoke(rv.Marshal())
	if err != nil || *gotRv != *rv {
		t.Fatalf("revoke round trip: %v %+v", err, gotRv)
	}
}
