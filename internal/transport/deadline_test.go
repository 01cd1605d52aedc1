package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// waitErr polls d.Err until it reports an error, failing after a second.
func waitErr(t *testing.T, d *Deadline) error {
	t.Helper()
	for limit := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if err := d.Err(); err != nil {
			return err
		}
		if time.Now().After(limit) {
			t.Fatal("Err still nil a second past the deadline")
		}
	}
}

// TestDeadlineErrWithoutDone: Err alone tells expiry, so a caller that
// never asks for Done never builds a channel or a timer.
func TestDeadlineErrWithoutDone(t *testing.T) {
	d := NewDeadline(context.Background(), 10*time.Millisecond)
	at, ok := d.Deadline()
	if !ok || at.Sub(time.Now()) > 10*time.Millisecond {
		t.Fatalf("Deadline() = %v, %v; want about 10ms from now", at, ok)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v", err)
	}
	if err := waitErr(t, d); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Err after the deadline = %v, want DeadlineExceeded", err)
	}
	if time.Now().Before(at) {
		t.Error("Err reported expiry before the deadline")
	}
	if d.done != nil || d.timer != nil {
		t.Error("Err built a channel or a timer")
	}
}

// TestDeadlineDoneClosesAtDeadline: once asked for, Done closes when the
// deadline passes, and not before.
func TestDeadlineDoneClosesAtDeadline(t *testing.T) {
	d := NewDeadline(context.Background(), 20*time.Millisecond)
	at, _ := d.Deadline()
	select {
	case <-d.Done():
		if time.Now().Before(at) {
			t.Error("Done closed before the deadline")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Done never closed")
	}
	if err := d.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Err = %v, want DeadlineExceeded", err)
	}
	if expired := NewDeadline(context.Background(), 0); !isClosed(expired.Done()) {
		t.Error("Done of a deadline already past is open")
	}
}

// TestDeadlineStop: Stop cancels, stops an armed timer and closes a built
// Done; after an expiry Err has reported, it leaves DeadlineExceeded.
func TestDeadlineStop(t *testing.T) {
	before := NewDeadline(context.Background(), time.Hour)
	before.Stop()
	if err := before.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err after Stop = %v, want Canceled", err)
	}
	if !isClosed(before.Done()) {
		t.Error("Done built after Stop is open")
	}

	armed := NewDeadline(context.Background(), time.Hour)
	done := armed.Done()
	armed.Stop()
	if !isClosed(done) {
		t.Error("Stop left a built Done open")
	}
	if armed.timer.Stop() {
		t.Error("Stop left the timer armed")
	}
	if err := armed.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err after Stop = %v, want Canceled", err)
	}

	late := NewDeadline(context.Background(), 0)
	_ = late.Err()
	late.Stop()
	if err := late.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Err of a deadline stopped after it expired = %v, want DeadlineExceeded", err)
	}
}

// TestDeadlineRearm: a stopped Deadline whose Done was never built runs
// again as a new one would, expired or not; one whose Done was built
// refuses, because its timer may still fire.
func TestDeadlineRearm(t *testing.T) {
	d := NewDeadline(context.Background(), 0)
	_ = d.Err()
	d.Stop()
	if !d.Rearm(time.Hour) {
		t.Fatal("Rearm refused a Deadline whose Done was never built")
	}
	if at, _ := d.Deadline(); at.Sub(time.Now()) < 59*time.Minute {
		t.Errorf("rearmed Deadline() = %v, want about an hour from now", at)
	}
	if err := d.Err(); err != nil {
		t.Errorf("Err after Rearm = %v, want nil", err)
	}
	d.Stop()
	if err := d.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err after the second Stop = %v, want Canceled", err)
	}

	armed := NewDeadline(context.Background(), time.Hour)
	_ = armed.Done()
	armed.Stop()
	if armed.Rearm(time.Hour) {
		t.Error("Rearm accepted a Deadline whose Done was built")
	}
	if err := armed.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err after a refused Rearm = %v, want Canceled", err)
	}
}

// TestDeadlineValue: values come from the parent.
func TestDeadlineValue(t *testing.T) {
	type key struct{}
	parent := context.WithValue(context.Background(), key{}, "v")
	d := NewDeadline(parent, time.Hour)
	defer d.Stop()
	if got := d.Value(key{}); got != "v" {
		t.Errorf("Value(key) = %v, want the parent's v", got)
	}
	if got := d.Value("other"); got != nil {
		t.Errorf("Value(other) = %v, want nil", got)
	}
}

// TestDeadlineCancelsChildren: a context derived from a Deadline is
// cancelled when the deadline fires.
func TestDeadlineCancelsChildren(t *testing.T) {
	d := NewDeadline(context.Background(), 10*time.Millisecond)
	child, cancel := context.WithCancel(d)
	defer cancel()
	select {
	case <-child.Done():
		if err := child.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("child Err = %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("child never cancelled")
	}
}

// TestDeadlineConcurrentUse: Done, Err and Stop from several goroutines
// around the moment of expiry agree and do not race (run with -race).
func TestDeadlineConcurrentUse(t *testing.T) {
	for i := 0; i < 50; i++ {
		d := NewDeadline(context.Background(), time.Duration(i%3)*time.Millisecond)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g {
				case 0:
					<-d.Done()
				case 1:
					for j := 0; j < 100; j++ {
						_ = d.Err()
					}
				case 2:
					d.Stop()
				default:
					_ = d.Done()
					_ = d.Err()
				}
			}(g)
		}
		wg.Wait()
		if err := d.Err(); err == nil || !isClosed(d.Done()) {
			t.Fatalf("round %d: settled with Err %v and Done closed %v", i, err, isClosed(d.Done()))
		}
	}
}

// deadlineSink makes the measured Deadline escape, as one passed to a
// transport does.
var deadlineSink context.Context

// TestDeadlineIsOneAllocation: a call that checks Err and stops builds
// the Deadline and nothing else.
func TestDeadlineIsOneAllocation(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		d := NewDeadline(context.Background(), time.Second)
		deadlineSink = d
		_ = d.Err()
		d.Stop()
	})
	if allocs != 1 {
		t.Errorf("NewDeadline + Err + Stop allocates %.0f times, want 1", allocs)
	}
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
