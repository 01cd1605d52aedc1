package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/proto"
)

const (
	payloadSize = 128
	// An open loop refuses (fails) an arrival that finds this many
	// invocations outstanding. A 1 s host stall makes a second's worth of
	// arrivals (500) due at once on top of those in flight, and the stall
	// test requires that to fail nothing.
	maxOutstanding = 1024
)

// genStats is what the generator counts inside the measured window. The
// sampler reads ok while the generator runs, hence the atomist.
type genStats struct {
	ok, failed, wrong, cold atomic.Int64
	traced                  atomic.Int64 // invocations made with span recording on
	lat                     []hist       // client latency per slice
	fold                    invokeFold
}

// generator drives one workload against a cluster.
type generator struct {
	c    *cluster
	rec  *recorder // nil in an untraced run
	w    *workload
	fns  []string
	mask uint64
	pad  []byte // seeded payload padding

	sliceLen    time.Duration
	nSlices     int
	windowStart time.Time
	measuring   atomic.Bool
	stop        atomic.Bool

	stats genStats
	wg    sync.WaitGroup

	// Open loop only.
	outstanding atomic.Int64
	late        hist // how late the pacer issued each measured arrival
}

func newGenerator(c *cluster, rec *recorder, w *workload, fns []string, seed int64, nSlices int, sliceLen time.Duration) *generator {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{c: c, rec: rec, w: w, fns: fns, mask: requestMask(seed), sliceLen: sliceLen, nSlices: nSlices}
	g.pad = make([]byte, payloadSize)
	rng.Read(g.pad)
	g.stats.lat = make([]hist, nSlices)
	return g
}

// requestMask is the seed's request-ID mask.
func requestMask(seed int64) uint64 { return rand.New(rand.NewSource(seed)).Uint64() }

// requestID is sequence XOR the seed's mask, so a tracing wrapper finds
// an invocation's record from the ID alone.
func requestID(mask, seq uint64) uint64 { return seq ^ mask }

// start launches the generator goroutine; the cluster is loaded from here
// on, unmeasured until beginWindow.
func (g *generator) start() {
	g.wg.Add(1)
	if g.w.open {
		go g.openLoop()
	} else {
		go g.closedLoop()
	}
}

func (g *generator) beginWindow(start time.Time) {
	g.windowStart = start
	g.measuring.Store(true)
}

// finish ends the window, stops the generator and waits for every
// outstanding invocation.
func (g *generator) finish() {
	g.measuring.Store(false)
	g.stop.Store(true)
	g.wg.Wait()
}

func (g *generator) tracing() bool { return g.rec != nil && g.rec.mode.Load() == modeFull }

// closedLoop is one client that sends its next invocation when the last
// one returns, cycling through the functions: with one sandbox per
// function and one invocation in flight, a slot is always free.
func (g *generator) closedLoop() {
	defer g.wg.Done()
	payload := append([]byte(nil), g.pad...)
	req := &proto.InvokeRequest{Payload: payload}
	ctx := context.Background()
	var slot *opRecord // one invocation at a time: the client's only record
	if g.rec != nil {
		slot = &g.rec.ring[0]
		ctx = context.WithValue(ctx, opKey{}, slot)
	}
	for seq := uint64(0); !g.stop.Load(); seq++ {
		id := requestID(g.mask, seq)
		binary.LittleEndian.PutUint64(payload, id)
		req.Function = g.fns[seq%uint64(len(g.fns))]
		var op *opRecord
		if g.tracing() {
			op = slot
			op.claim(id)
		}
		start := time.Now()
		resp, err := g.c.lb.Invoke(ctx, req)
		end := time.Now()
		if g.measuring.Load() {
			g.record(op, seq, req, resp, err, time.Time{}, start, end)
		} else if op != nil {
			op.id.Store(0)
		}
	}
}

func (g *generator) openLoop() {
	defer g.wg.Done()
	// A seeded permutation, walked round and round: a function comes up
	// again only after every other one has.
	p := pacer{interval: time.Second / time.Duration(g.w.rate), now: time.Now, sleep: time.Sleep}
	p.run(time.Now(), g.stop.Load, func(k int, due time.Time, late time.Duration) {
		measured := g.measuring.Load()
		if measured {
			g.late.add(int64(late))
		}
		if g.outstanding.Load() >= maxOutstanding {
			if measured {
				g.stats.failed.Add(1)
			}
			return
		}
		g.outstanding.Add(1)
		g.wg.Add(1)
		go g.openOp(uint64(k), due, measured)
	})
}

func (g *generator) openOp(seq uint64, due time.Time, measured bool) {
	defer g.wg.Done()
	defer g.outstanding.Add(-1)
	id := requestID(g.mask, seq)
	payload := append([]byte(nil), g.pad...)
	binary.LittleEndian.PutUint64(payload, id)
	req := &proto.InvokeRequest{Function: g.fns[seq%uint64(len(g.fns))], Payload: payload}
	ctx := context.Background()
	var op *opRecord
	if g.tracing() {
		op = g.rec.slot(id)
		op.claim(id)
		ctx = context.WithValue(ctx, opKey{}, op)
	}
	start := time.Now()
	resp, err := g.c.lb.Invoke(ctx, req)
	end := time.Now()
	if !measured {
		if op != nil {
			op.id.Store(0)
		}
		return
	}
	g.record(op, seq, req, resp, err, due, start, end)
}

// record files one measured invocation, sent at start and back at end. An
// open loop passes when it was due: its latency runs from there, and it
// belongs to the slice it was due in. A closed loop passes the zero time:
// latency runs from start and the slice is the one it completed in.
func (g *generator) record(op *opRecord, seq uint64, req *proto.InvokeRequest, resp *proto.InvokeResponse, err error, due, start, end time.Time) {
	st := &g.stats
	from, at := start, end
	if !due.IsZero() {
		from, at = due, due
	}
	switch {
	case err != nil:
		st.failed.Add(1)
	case !bytes.Equal(resp.Body, req.Payload):
		st.failed.Add(1)
		st.wrong.Add(1)
	default:
		st.ok.Add(1)
		if resp.ColdStart {
			st.cold.Add(1)
		}
		if i := int(at.Sub(g.windowStart) / g.sliceLen); i >= 0 && i < g.nSlices {
			st.lat[i].add(int64(end.Sub(from)))
		}
	}
	if op == nil {
		return
	}
	st.traced.Add(1)
	whole := span{int64(start.Sub(g.rec.base)), int64(end.Sub(g.rec.base))}
	sampled := seq%rawSampleEvery == 0 || g.w.open
	f := g.rec.foldOp(&st.fold, op, whole, binary.LittleEndian.Uint64(req.Payload), sampled)
	if err == nil && f.ok && resp.ColdStart && g.rec.cold != nil {
		g.rec.cold.finish(g.rec, req.Function, f.node, f.arrive, f.proxied)
	}
}
