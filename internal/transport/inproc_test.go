package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dirigent/internal/race"
)

// TestInProcCallLeavesDeadlineUnstarted: an in-process call asks a fresh
// Deadline only whether its parent has ended, so the Deadline's clock is
// not started and its Stop pools it. The call, the Deadline and its Stop
// together allocate nothing.
func TestInProcCallLeavesDeadlineUnstarted(t *testing.T) {
	tr := NewInProc()
	ln, err := tr.Listen("svc", func(_ string, p []byte) ([]byte, error) { return p, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	reused := 0
	for i := 0; i < 100; i++ {
		d := NewDeadline(context.Background(), time.Second)
		if _, err := tr.Call(d, "svc", "m", nil); err != nil {
			t.Fatal(err)
		}
		if d.consulted.Load() || d.started {
			t.Fatal("the in-process call started the Deadline's clock")
		}
		d.Stop()
		next := NewDeadline(context.Background(), time.Second)
		if next == d {
			reused++
		}
		next.Stop()
	}
	if race.Enabled {
		return // the race detector makes sync.Pool drop what it is given
	}
	if reused == 0 {
		t.Error("no Deadline stopped after an in-process call was reused in 100 rounds")
	}
	payload := []byte("x")
	allocs := testing.AllocsPerRun(1000, func() {
		d := NewDeadline(context.Background(), time.Second)
		_, _ = tr.Call(d, "svc", "m", payload)
		d.Stop()
	})
	if allocs != 0 {
		t.Errorf("an in-process call under a Deadline allocates %.0f times, want 0", allocs)
	}
}

// TestInProcRefusesEndedContexts: a context that has already ended is
// refused before the handler runs, whether it is a Deadline with no time
// at all, a fresh Deadline over a canceled parent, or an expired
// context.WithTimeout.
func TestInProcRefusesEndedContexts(t *testing.T) {
	tr := NewInProc()
	handled := 0 // the handler runs on the calling goroutine
	ln, err := tr.Listen("svc", func(string, []byte) ([]byte, error) {
		handled++
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancelExpired()
	<-expired.Done()

	cases := []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"zero timeout", NewDeadline(context.Background(), 0), context.DeadlineExceeded},
		{"negative timeout", NewDeadline(context.Background(), -time.Second), context.DeadlineExceeded},
		{"canceled parent", NewDeadline(canceled, time.Hour), context.Canceled},
		{"expired WithTimeout", expired, context.DeadlineExceeded},
	}
	for _, c := range cases {
		if _, err := tr.Call(c.ctx, "svc", "m", nil); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if d, ok := c.ctx.(*Deadline); ok {
			d.Stop()
		}
	}
	if handled != 0 {
		t.Errorf("the handler ran %d times for calls whose context had ended", handled)
	}
}

// TestInProcListenCloseRacingCalls: calls racing an address's Listen and
// Close get a response or ErrUnreachable, and never reach the handler of
// an endpoint whose Close returned before the call began. Each listen
// answers with its generation; a caller notes the last closed generation
// before it calls. Run with -race.
func TestInProcListenCloseRacingCalls(t *testing.T) {
	const (
		callers = 4
		calls   = 5000 // per caller
	)
	tr := NewInProc()
	var closedThrough atomic.Uint64 // the last generation whose Close has returned
	listen := func(gen uint64) Listener {
		resp := binary.LittleEndian.AppendUint64(nil, gen)
		ln, err := tr.Listen("svc", func(string, []byte) ([]byte, error) { return resp, nil })
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		return ln
	}

	var (
		wg       sync.WaitGroup
		running  atomic.Int32
		answered atomic.Int64
	)
	running.Store(callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer running.Add(-1)
			for i := 0; i < calls; i++ {
				before := closedThrough.Load()
				resp, err := tr.Call(context.Background(), "svc", "m", nil)
				if err != nil {
					if !errors.Is(err, ErrUnreachable) {
						t.Errorf("err = %v, want a response or ErrUnreachable", err)
						return
					}
					continue
				}
				answered.Add(1)
				if gen := binary.LittleEndian.Uint64(resp); gen <= before {
					t.Errorf("generation %d answered a call made after generation %d had closed", gen, before)
					return
				}
			}
		}()
	}
	gen := uint64(0)
	for running.Load() > 0 {
		gen++
		ln := listen(gen)
		runtime.Gosched() // let some calls in
		ln.Close()
		closedThrough.Store(gen)
	}
	wg.Wait()
	t.Logf("%d of %d calls answered over %d generations", answered.Load(), callers*calls, gen)

	ln := listen(gen + 1)
	defer ln.Close()
	resp, err := tr.Call(context.Background(), "svc", "m", nil)
	if err != nil {
		t.Fatalf("after the races, a call to a re-listened address: %v", err)
	}
	if got := binary.LittleEndian.Uint64(resp); got != gen+1 {
		t.Errorf("after the races, generation %d answered, want %d", got, gen+1)
	}
}
