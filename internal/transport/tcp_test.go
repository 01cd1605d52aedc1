package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dirigent/internal/race"
)

// listenEcho serves an echo handler on a loopback port of tr.
func listenEcho(t *testing.T, tr *TCP, delay time.Duration) string {
	t.Helper()
	ln, err := tr.Listen("127.0.0.1:0", func(_ string, p []byte) ([]byte, error) {
		time.Sleep(delay)
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln.Addr()
}

// awaitPending waits until tr's connection to addr has n calls pending,
// and returns the connection.
func awaitPending(t *testing.T, tr *TCP, addr string, n int) *tcpClientConn {
	t.Helper()
	for limit := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		tr.mu.Lock()
		cc := tr.conns[addr]
		tr.mu.Unlock()
		if cc != nil {
			cc.mu.Lock()
			pending := len(cc.pending)
			cc.mu.Unlock()
			if pending == n {
				return cc
			}
		}
		if time.Now().After(limit) {
			t.Fatalf("the connection to %s never had %d calls pending", addr, n)
		}
	}
}

// TestTCPCallAllocations pins what one call costs the heap, client and
// server together: one, the body the client reads the response into and
// its caller keeps. The server reads the request into a pooled frame and
// runs it on its connection's parked handler goroutine, so it starts no
// goroutine. A *Deadline adds nothing: it is pooled, and the connection's
// timer watches it, so its Done builds no channel or timer. The frame
// headers, the interned method name and the pooled pending-call record
// cost nothing either.
func TestTCPCallAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	tr := NewTCP()
	defer tr.Close()
	addr := listenEcho(t, tr, 0)
	payload := bytes.Repeat([]byte("p"), 128)
	if _, err := tr.Call(context.Background(), addr, "dp.Invoke", payload); err != nil {
		t.Fatal(err) // dials outside the count
	}
	for _, c := range []struct {
		name string
		max  float64
		call func() error
	}{
		{"Background", 1, func() error {
			_, err := tr.Call(context.Background(), addr, "dp.Invoke", payload)
			return err
		}},
		{"Deadline", 1, func() error {
			d := NewDeadline(context.Background(), time.Minute)
			defer d.Stop()
			_, err := tr.Call(d, addr, "dp.Invoke", payload)
			return err
		}},
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.2f allocations per call", c.name, allocs)
		if allocs > c.max {
			t.Errorf("%s: a call allocates %.2f times, want at most %.0f", c.name, allocs, c.max)
		}
	}
}

// silentPeer listens on a loopback port and accepts connections but never
// reads from or writes to them. Accepted connections arrive on the channel
// and are closed when the test ends.
func silentPeer(t *testing.T) (string, chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		for len(accepted) > 0 {
			(<-accepted).Close()
		}
	})
	return ln.Addr().String(), accepted
}

// TestTCPStalledPeerHonorsDeadline: against a peer that accepts but never
// reads, a call whose request cannot be written returns by its deadline,
// under either context kind, as ErrUnreachable so that callers fail over.
// A second caller queued behind it on the connection returns too.
func TestTCPStalledPeerHonorsDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	big := make([]byte, 32<<20) // far more than the socket buffers hold
	for name, bound := range deadlineKinds {
		t.Run(name, func(t *testing.T) {
			addr, accepted := silentPeer(t)
			tr := NewTCP()
			defer tr.Close()

			type result struct {
				err  error
				took time.Duration
			}
			call := func(payload []byte, out chan<- result) {
				ctx, stop := bound(timeout)
				defer stop()
				start := time.Now()
				_, err := tr.Call(ctx, addr, "m", payload)
				out <- result{err, time.Since(start)}
			}
			first, second := make(chan result, 1), make(chan result, 1)
			go call(big, first)
			<-accepted
			// Let the first call fill the socket and block before the
			// second queues behind it.
			time.Sleep(timeout / 5)
			go call([]byte("small"), second)

			for i, ch := range []chan result{first, second} {
				select {
				case r := <-ch:
					if r.took > timeout+time.Second {
						t.Errorf("caller %d returned after %v, want about %v", i+1, r.took, timeout)
					}
					if i == 0 && !errors.Is(r.err, ErrUnreachable) {
						t.Errorf("stalled caller: err = %v, want ErrUnreachable", r.err)
					}
					if i == 1 && !errors.Is(r.err, ErrUnreachable) && !errors.Is(r.err, context.DeadlineExceeded) {
						t.Errorf("queued caller: err = %v, want ErrUnreachable or DeadlineExceeded", r.err)
					}
				case <-time.After(timeout + 3*time.Second):
					t.Errorf("caller %d still blocked %v after its deadline", i+1, 3*time.Second)
				}
			}
		})
	}
}

// TestTCPCallEndsWithItsDeadlinesParent: a call bounded by a *Deadline
// whose parent can be canceled stops waiting for its answer when the
// parent is canceled, long before the deadline, and the connection goes
// on serving.
func TestTCPCallEndsWithItsDeadlinesParent(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	entered, release := make(chan struct{}, 1), make(chan struct{})
	ln, err := tr.Listen("127.0.0.1:0", func(_ string, p []byte) ([]byte, error) {
		if string(p) == "hang" {
			entered <- struct{}{}
			<-release
		}
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	defer close(release)
	parent, cancel := context.WithCancel(context.Background())
	d := NewDeadline(parent, time.Minute)
	errCh := make(chan error, 1)
	go func() {
		_, err := tr.Call(d, ln.Addr(), "m", []byte("hang"))
		errCh <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the call still waited 5 s after its Deadline's parent was canceled")
	}
	d.Stop()
	awaitPending(t, tr, ln.Addr(), 0)
	if got, err := tr.Call(context.Background(), ln.Addr(), "m", []byte("after")); err != nil || string(got) != "after" {
		t.Errorf("call after the canceled one = %q, %v", got, err)
	}
}

// TestTCPConcurrentDeadlinesAroundHandlerDelay: rounds of concurrent
// calls under both context kinds, with deadlines on both sides of the
// handler's delay, share one connection, so responses and expiries race.
// Each call either echoes its own payload or fails with DeadlineExceeded,
// and the pending table ends empty. A record reused after its caller gave
// up would hand a later call a stale completion, or block its next
// completer on a full done channel and hang the connection.
func TestTCPConcurrentDeadlinesAroundHandlerDelay(t *testing.T) {
	const delay = 2 * time.Millisecond
	tr := NewTCP()
	defer tr.Close()
	addr := listenEcho(t, tr, delay)
	if _, err := tr.Call(context.Background(), addr, "m", nil); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	outcomes := map[string]int{}
	for round := 0; round < 32; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				kind := "Deadline"
				if i%2 == 1 {
					kind = "WithTimeout"
				}
				ctx, stop := deadlineKinds[kind](time.Duration(i%16) * delay / 8)
				defer stop()
				want := []byte(fmt.Sprintf("payload-%d-%d", round, i))
				got, err := tr.Call(ctx, addr, "m", want)
				outcome := "ok"
				switch {
				case errors.Is(err, context.DeadlineExceeded):
					outcome = "expired"
				case err != nil:
					t.Errorf("call %d (%s): err = %v, want success or DeadlineExceeded", i, kind, err)
					return
				case !bytes.Equal(got, want):
					t.Errorf("call %d (%s): got %q, want its own payload %q", i, kind, got, want)
				}
				mu.Lock()
				outcomes[kind+" "+outcome]++
				mu.Unlock()
			}(i)
		}
		wg.Wait()
	}
	t.Logf("outcomes: %v", outcomes)
	awaitPending(t, tr, addr, 0)
	for i := 0; i < 2; i++ { // the connection, and the records, still work
		if got, err := tr.Call(context.Background(), addr, "m", []byte("after")); err != nil || string(got) != "after" {
			t.Errorf("call after the rounds = %q, %v", got, err)
		}
	}
}

// TestTCPShortDeadlineAfterLongExpiresOnTime: the connection's timer,
// armed for a long deadline, is re-armed for a shorter one that arrives
// later.
func TestTCPShortDeadlineAfterLongExpiresOnTime(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	release := make(chan struct{})
	ln, err := tr.Listen("127.0.0.1:0", func(string, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	defer close(release)

	long := NewDeadline(context.Background(), 10*time.Second)
	defer long.Stop()
	longDone := make(chan error, 1)
	go func() {
		_, err := tr.Call(long, ln.Addr(), "m", nil)
		longDone <- err
	}()
	awaitPending(t, tr, ln.Addr(), 1)

	const timeout = 50 * time.Millisecond
	short := NewDeadline(context.Background(), timeout)
	defer short.Stop()
	start := time.Now()
	_, err = tr.Call(short, ln.Addr(), "m", nil)
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("short call: err = %v, want DeadlineExceeded", err)
	}
	if took < timeout || took > timeout+time.Second {
		t.Errorf("short call returned after %v, want about %v", took, timeout)
	}
	select {
	case err := <-longDone:
		t.Errorf("the long call returned early: %v", err)
	default:
	}
}

// TestTCPSameTimeoutCallsRarelyMoveWriteDeadline: calls with one timeout
// on one connection leave its write deadline where the first one set it
// until less than half a timeout is left, so 100 quick calls move it at
// most twice, under either context kind. The deadline set is never later
// than the call's own, and a call with no deadline clears it.
func TestTCPSameTimeoutCallsRarelyMoveWriteDeadline(t *testing.T) {
	for name, bound := range deadlineKinds {
		t.Run(name, func(t *testing.T) {
			tr := NewTCP()
			defer tr.Close()
			addr := listenEcho(t, tr, 0)
			writeBy := func() time.Time {
				tr.mu.Lock()
				cc := tr.conns[addr]
				tr.mu.Unlock()
				cc.wmu.Lock()
				defer cc.wmu.Unlock()
				return cc.writeBy
			}
			var set time.Time
			moves := 0
			for i := 0; i < 100; i++ {
				ctx, stop := bound(10 * time.Second)
				_, err := tr.Call(ctx, addr, "m", []byte("x"))
				at, _ := ctx.Deadline()
				stop()
				if err != nil {
					t.Fatal(err)
				}
				if got := writeBy(); !got.Equal(set) {
					moves++
					set = got
				}
				if set.IsZero() || set.After(at) {
					t.Fatalf("call %d: the write deadline is %v, want one no later than the call's %v", i, set, at)
				}
			}
			if moves > 2 {
				t.Errorf("100 calls with one timeout moved the write deadline %d times, want at most 2", moves)
			}
			if _, err := tr.Call(context.Background(), addr, "m", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if got := writeBy(); !got.IsZero() {
				t.Errorf("after a call with no deadline the write deadline is %v, want none", got)
			}
		})
	}
}

// TestTCPConnectionLossFailsPendingAndStopsTimer: when the peer drops the
// connection mid-flight, every pending call fails with ErrUnreachable,
// whatever its context, and the deadline timer is stopped.
func TestTCPConnectionLossFailsPendingAndStopsTimer(t *testing.T) {
	addr, accepted := silentPeer(t)
	tr := NewTCP()
	defer tr.Close()

	const calls = 8
	errs := make(chan error, calls)
	start := func(i int) {
		go func() {
			var ctx context.Context = context.Background()
			if i%2 == 0 {
				d := NewDeadline(context.Background(), time.Minute)
				defer d.Stop()
				ctx = d
			}
			_, err := tr.Call(ctx, addr, "m", []byte("x"))
			errs <- err
		}()
	}
	start(0) // dials the one connection the others share
	awaitPending(t, tr, addr, 1)
	for i := 1; i < calls; i++ {
		start(i)
	}
	cc := awaitPending(t, tr, addr, calls)
	(<-accepted).Close()
	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrUnreachable) {
				t.Errorf("err = %v, want ErrUnreachable", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a pending call outlived its connection")
		}
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if len(cc.pending) != 0 || !cc.closed {
		t.Errorf("after the loss: %d pending, closed %v", len(cc.pending), cc.closed)
	}
	if cc.timer == nil || cc.timer.Stop() {
		t.Error("the deadline timer was never armed, or is still armed")
	}
}

// parkedHandlers counts the connections of ln with a handler goroutine
// parked. Reading a parked flag orders everything its handler did before
// parking, its PutFrame included, before the caller's next step.
func parkedHandlers(ln Listener) int {
	s := ln.(*tcpListener)
	s.connMu.Lock()
	defer s.connMu.Unlock()
	n := 0
	for c := range s.conns {
		if c.parked.Load() {
			n++
		}
	}
	return n
}

// awaitServerState waits until ok holds, polling, and fails the test
// with what it last saw otherwise.
func awaitServerState(t *testing.T, what string, ok func() (bool, string)) {
	t.Helper()
	for limit := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		done, saw := ok()
		if done {
			return
		}
		if time.Now().After(limit) {
			t.Fatalf("%s: still %s after 5 s", what, saw)
		}
	}
}

// TestTCPBlockedHandlersRunAtOnce: 64 concurrent calls on one connection
// whose handlers each block until all 64 have arrived, so they complete
// only if every request runs on a handler of its own at once. Afterwards
// the server keeps one parked handler for the connection, and the
// goroutine count is back to the listener's, the connection's two
// readers and that handler.
func TestTCPBlockedHandlersRunAtOnce(t *testing.T) {
	const calls = 64
	tr := NewTCP()
	defer tr.Close()
	var arrived atomic.Int32
	all := make(chan struct{})
	// One deadline for every handler, so that handlers run one at a time
	// fail in seconds, not 64 timeouts.
	giveUp, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ln, err := tr.Listen("127.0.0.1:0", func(_ string, p []byte) ([]byte, error) {
		if string(p) == "dial" {
			return p, nil
		}
		if arrived.Add(1) == calls {
			close(all)
		}
		select {
		case <-all:
			return p, nil
		case <-giveUp.Done():
			return nil, errors.New("not every call reached a handler")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := runtime.NumGoroutine()
	if _, err := tr.Call(context.Background(), ln.Addr(), "m", []byte("dial")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := []byte(fmt.Sprintf("call-%d", i))
			if got, err := tr.Call(context.Background(), ln.Addr(), "m", want); err != nil || !bytes.Equal(got, want) {
				t.Errorf("call %d = %q, %v; want its own payload", i, got, err)
			}
		}(i)
	}
	wg.Wait()
	awaitServerState(t, "after the calls", func() (bool, string) {
		n, parked := runtime.NumGoroutine(), parkedHandlers(ln)
		return n <= base+3 && parked == 1, fmt.Sprintf("%d goroutines (want at most %d) and %d parked handlers (want 1)", n, base+3, parked)
	})
}

// TestTCPListenerCloseEndsParkedHandler: Close returns while a handler is
// parked, and ends it.
func TestTCPListenerCloseEndsParkedHandler(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	base := runtime.NumGoroutine()
	ln, err := tr.Listen("127.0.0.1:0", func(_ string, p []byte) ([]byte, error) { return p, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(context.Background(), ln.Addr(), "m", []byte("x")); err != nil {
		t.Fatal(err)
	}
	awaitServerState(t, "after the call", func() (bool, string) {
		n := parkedHandlers(ln)
		return n == 1, fmt.Sprintf("%d parked handlers", n)
	})
	closed := make(chan error, 1)
	go func() { closed <- ln.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waited 5 s with a handler parked")
	}
	awaitServerState(t, "after Close", func() (bool, string) {
		n := runtime.NumGoroutine()
		return n <= base, fmt.Sprintf("%d goroutines, want at most %d", n, base)
	})
}

// TestTCPResponseWriteDeadline: a client that sends large requests and
// never reads their responses loses its connection once a response write
// has waited responseWriteTimeout, and the server's goroutines return.
func TestTCPResponseWriteDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	defer func(old time.Duration) { responseWriteTimeout = old }(responseWriteTimeout)
	responseWriteTimeout = timeout
	tr := NewTCP()
	ln, err := tr.Listen("127.0.0.1:0", func(_ string, p []byte) ([]byte, error) { return p, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	// 16 MiB of echoes, far more than the socket buffers hold. A slow
	// writer may find the connection closed before it is done.
	w := bufio.NewWriterSize(conn, frameBufferSize)
	big := make([]byte, 256<<10)
	for id := uint64(1); id <= 64; id++ {
		if err := writeRequest(w, id, "m", big); err != nil {
			t.Logf("request %d: %v", id, err)
			break
		}
	}
	start := time.Now()
	awaitServerState(t, "a client that never reads", func() (bool, string) {
		s := ln.(*tcpListener)
		s.connMu.Lock()
		conns := len(s.conns)
		s.connMu.Unlock()
		n := runtime.NumGoroutine()
		return conns == 0 && n <= base, fmt.Sprintf("%d connections and %d goroutines, want 0 and at most %d", conns, n, base)
	})
	t.Logf("the server closed the connection %v after the requests were written", time.Since(start))
}

// TestTCPKeptPayloadReadsPoison: a handler that keeps part of its payload
// past its return breaks HandlerFunc's contract, and in race builds reads
// the poison PutFrame wrote over the pooled frame.
func TestTCPKeptPayloadReadsPoison(t *testing.T) {
	if !race.Enabled {
		t.Skip("frames are poisoned only in race builds")
	}
	tr := NewTCP()
	defer tr.Close()
	var kept []byte
	ln, err := tr.Listen("127.0.0.1:0", func(_ string, p []byte) ([]byte, error) {
		kept = p[2:6]
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := tr.Call(context.Background(), ln.Addr(), "m", []byte("payload kept past its call")); err != nil {
		t.Fatal(err)
	}
	awaitServerState(t, "after the call", func() (bool, string) {
		n := parkedHandlers(ln)
		return n == 1, fmt.Sprintf("%d parked handlers", n)
	})
	if want := bytes.Repeat([]byte{framePoison}, 4); !bytes.Equal(kept, want) {
		t.Errorf("the kept sub-slice reads %q after the frame was given back, want the poison %q", kept, want)
	}
}

// fullMethodTable is a method table already at its cap.
func fullMethodTable() methodTable {
	m := make(methodTable)
	for i := 0; len(m) < maxInternedMethods; i++ {
		s := fmt.Sprintf("interned.%d", i)
		m[s] = s
	}
	return m
}

// frameReader returns a bufio.Reader of size n over data, and a function
// that rewinds it to the start of data.
func frameReader(data []byte, n int) (*bufio.Reader, func()) {
	var src bytes.Reader
	r := bufio.NewReaderSize(&src, n)
	rewind := func() {
		src.Reset(data)
		r.Reset(&src)
	}
	rewind()
	return r, rewind
}

// frameBytes is what a frame readRequest returned holds; nil for none.
func frameBytes(frame *[]byte) []byte {
	if frame == nil {
		return nil
	}
	return *frame
}

func FuzzReadRequestFrame(f *testing.F) {
	for _, c := range []struct {
		method  string
		payload []byte
	}{{"dp.Invoke", bytes.Repeat([]byte("p"), 128)}, {"", nil}, {"m", []byte("x")}} {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeRequest(w, 7, c.method, c.payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-1])
	}
	tooLarge := binary.LittleEndian.AppendUint64(nil, 1)
	tooLarge = append(tooLarge, frameKindRequest, 1, 0, 'm')
	f.Add(binary.LittleEndian.AppendUint32(tooLarge, maxFramePayload+1))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, frameKindResponse, 0, 0, 0, 0, 0, 0})
	full := fullMethodTable()

	f.Fuzz(func(t *testing.T, data []byte) {
		r, rewind := frameReader(data, frameBufferSize)
		id, method, frame, err := readRequest(r, make(methodTable))
		rewind()
		id2, method2, frame2, err2 := readRequest(r, full)
		payload, payload2 := frameBytes(frame), frameBytes(frame2)
		if id != id2 || method != method2 || !bytes.Equal(payload, payload2) || err != err2 {
			t.Fatalf("a full method table changed the decode: (%d %q %d %v), want (%d %q %d %v)",
				id2, method2, len(payload2), err2, id, method, len(payload), err)
		}
		if len(full) != maxInternedMethods {
			t.Fatalf("the method table grew past its cap to %d", len(full))
		}

		if len(data) >= requestHeaderLen && data[8] == frameKindRequest {
			end := requestHeaderLen + int(binary.LittleEndian.Uint16(data[9:11])) + payloadLenLen
			if len(data) >= end && binary.LittleEndian.Uint32(data[end-payloadLenLen:]) > maxFramePayload {
				if err != errFrameTooLarge {
					t.Fatalf("declared payload over the limit: err = %v, want %v", err, errFrameTooLarge)
				}
				empty := make(methodTable)
				if allocs := testing.AllocsPerRun(5, func() { rewind(); readRequest(r, empty) }); allocs != 0 {
					t.Fatalf("refusing a frame too large allocates %.0f times", allocs)
				}
			}
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeRequest(w, id, method, payload); err != nil {
			t.Fatal(err)
		}
		if n := buf.Len(); n > len(data) || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("re-encoded frame differs from the input it was read from")
		}
	})
}

func FuzzReadResponseFrame(f *testing.F) {
	for _, c := range []struct {
		status byte
		body   []byte
	}{{respStatusOK, bytes.Repeat([]byte("b"), 128)}, {respStatusError, []byte("boom")}, {respStatusOK, nil}} {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeResponse(w, 7, c.status, c.body); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-1])
	}
	tooLarge := binary.LittleEndian.AppendUint64(nil, 1)
	tooLarge = append(tooLarge, frameKindResponse, respStatusOK)
	f.Add(binary.LittleEndian.AppendUint32(tooLarge, maxFramePayload+1))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, frameKindRequest, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, rewind := frameReader(data, frameBufferSize)
		id, status, body, err := readResponse(r)
		if len(data) >= responseHeaderLen && data[8] == frameKindResponse &&
			binary.LittleEndian.Uint32(data[10:14]) > maxFramePayload {
			if err != errFrameTooLarge {
				t.Fatalf("declared body over the limit: err = %v, want %v", err, errFrameTooLarge)
			}
			if allocs := testing.AllocsPerRun(5, func() { rewind(); readResponse(r) }); allocs != 0 {
				t.Fatalf("refusing a frame too large allocates %.0f times", allocs)
			}
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeResponse(w, id, status, body); err != nil {
			t.Fatal(err)
		}
		if n := buf.Len(); n > len(data) || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("re-encoded frame differs from the input it was read from")
		}
	})
}
