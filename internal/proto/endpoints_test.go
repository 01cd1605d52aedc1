package proto

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dirigent/internal/codec"
	"dirigent/internal/core"
)

// nestedEndpointBatch is the batch encoding as a nested marshal writes
// it: every update marshaled into a buffer of its own and then copied in
// behind its length. The writer must produce these bytes without the
// nested buffers.
func nestedEndpointBatch(m *EndpointUpdateBatch) []byte {
	e := codec.NewEncoder(0)
	e.U32(uint32(len(m.Updates)))
	for i := range m.Updates {
		u := &m.Updates[i]
		ue := codec.NewEncoder(0)
		ue.String(u.Function)
		ue.U64(u.Version)
		ue.U32(uint32(len(u.Endpoints)))
		for j := range u.Endpoints {
			ep := &u.Endpoints[j]
			ue.U64(uint64(ep.ID))
			ue.String(ep.Function)
			ue.U16(uint16(ep.Node))
			ue.String(ep.Addr)
			ue.U8(uint8(ep.State))
		}
		e.RawBytes(ue.Bytes())
	}
	return e.Bytes()
}

// endpointBatches returns batches of no update, one drained update, one
// update of one endpoint, and many updates of up to six endpoints each.
func endpointBatches(many int) []EndpointUpdateBatch {
	var big EndpointUpdateBatch
	for i := 0; i < many; i++ {
		u := EndpointUpdate{Function: fmt.Sprintf("fn-%04d", i), Version: uint64(i) << 32}
		for j := 0; j < i%7; j++ {
			u.Endpoints = append(u.Endpoints, SandboxInfo{
				ID: core.SandboxID(i*100 + j), Function: u.Function, Node: core.NodeID(j),
				Addr: fmt.Sprintf("10.0.0.%d:9000", j), State: core.SandboxReady,
			})
		}
		big.Updates = append(big.Updates, u)
	}
	return []EndpointUpdateBatch{
		{},
		{Updates: []EndpointUpdate{{Function: "drained", Version: 9}}},
		{Updates: []EndpointUpdate{{Function: "f", Version: 1<<32 | 7, Endpoints: []SandboxInfo{
			{ID: 5, Function: "f", Node: 1, Addr: "w:9000", State: core.SandboxReady},
		}}}},
		big,
	}
}

// TestEndpointBatchWriterMatchesMarshal: for no update, one, and many,
// with and without endpoints, the writer and Marshal both write the
// nested encoding's bytes, and a writer reset onto a used buffer writes
// them again.
func TestEndpointBatchWriterMatchesMarshal(t *testing.T) {
	var w EndpointBatchWriter
	var buf []byte
	for _, m := range endpointBatches(40) {
		want := nestedEndpointBatch(&m)
		if got := m.Marshal(); !bytes.Equal(got, want) {
			t.Errorf("%d updates: Marshal wrote %x, want %x", len(m.Updates), got, want)
		}
		w.Reset(buf)
		for i := range m.Updates {
			u := &m.Updates[i]
			w.BeginUpdate(u.Function, u.Version)
			for j := range u.Endpoints {
				w.Endpoint(&u.Endpoints[j])
			}
			w.EndUpdate()
		}
		if got := w.Bytes(); !bytes.Equal(got, want) || w.Updates() != len(m.Updates) {
			t.Errorf("%d updates: the writer wrote %d updates in %x, want %x", len(m.Updates), w.Updates(), got, want)
		}
		buf = w.Bytes()
		got, err := UnmarshalEndpointUpdateBatch(want)
		if err != nil || len(got.Updates) != len(m.Updates) || (len(m.Updates) > 0 && !reflect.DeepEqual(got.Updates, m.Updates)) {
			t.Errorf("%d updates: decoded %+v, %v", len(m.Updates), got, err)
		}
	}
}

func FuzzVisitEndpointUpdateBatch(f *testing.F) {
	// Few updates in the seeds: every accepted input's prefixes are
	// decoded too, so the cost of an input grows with its square.
	for _, m := range endpointBatches(4) {
		f.Add(m.Marshal())
	}
	f.Add([]byte{1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		var visited []EndpointUpdate
		err := VisitEndpointUpdateBatch(b, func(function []byte, version uint64, endpoints EndpointViews) {
			visited = append(visited, endpointUpdateOf(function, version, endpoints))
		})
		m, uerr := UnmarshalEndpointUpdateBatch(b)
		if (err == nil) != (uerr == nil) {
			t.Fatalf("Visit says %v, Unmarshal says %v", err, uerr)
		}
		if err != nil {
			if len(visited) != 0 {
				t.Fatalf("a refused batch visited %d updates", len(visited))
			}
			return
		}
		if len(visited) != len(m.Updates) || (len(visited) > 0 && !reflect.DeepEqual(visited, m.Updates)) {
			t.Fatalf("Visit yields %+v, Unmarshal %+v", visited, m.Updates)
		}
		if enc := m.Marshal(); !bytes.Equal(enc, b) {
			t.Fatalf("re-marshal wrote %x, the accepted input was %x", enc, b)
		}
		for cut := range len(b) {
			if err := VisitEndpointUpdateBatch(b[:cut], func([]byte, uint64, EndpointViews) {}); err == nil {
				t.Fatalf("prefix of %d of %d bytes accepted", cut, len(b))
			}
		}
	})
}
