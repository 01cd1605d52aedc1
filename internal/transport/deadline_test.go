package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dirigent/internal/race"
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

// TestDeadlineStop: Stop cancels a Deadline whose Done was built, stops
// its timer and closes the channel; after an expiry it leaves
// DeadlineExceeded. Such a Deadline is kept, not pooled, so it reads the
// same afterwards.
func TestDeadlineStop(t *testing.T) {
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
	_ = late.Done()
	late.Stop()
	if err := late.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Err of a deadline stopped after it expired = %v, want DeadlineExceeded", err)
	}
}

// TestDeadlineReusedIsFresh: a stopped Deadline whose Done was never
// built comes back from NewDeadline as a new one would, expired or not:
// Err is nil again and Value asks the new parent.
func TestDeadlineReusedIsFresh(t *testing.T) {
	type key struct{}
	old := context.WithValue(context.Background(), key{}, "old")
	parent := context.WithValue(context.Background(), key{}, "new")
	reused := 0
	for i := 0; i < 100; i++ {
		d := NewDeadline(old, 0)
		if err := d.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err of an expired deadline = %v", err)
		}
		d.Stop()
		next := NewDeadline(parent, time.Hour)
		if next == d {
			reused++
		}
		if at, _ := next.Deadline(); at.Sub(time.Now()) < 59*time.Minute {
			t.Fatalf("Deadline() = %v, want about an hour from now", at)
		}
		if err := next.Err(); err != nil {
			t.Fatalf("Err of a fresh deadline = %v, want nil", err)
		}
		if got := next.Value(key{}); got != "new" {
			t.Fatalf("Value(key) = %v, want the new parent's", got)
		}
		next.Stop()
	}
	if reused == 0 && !race.Enabled {
		t.Error("no stopped Deadline was reused in 100 rounds")
	}
}

// TestDeadlineWithDoneIsNeverReused: a Deadline whose Done was built may
// still be held by its timer or a derived context, so Stop keeps it out
// of the pool.
func TestDeadlineWithDoneIsNeverReused(t *testing.T) {
	d := NewDeadline(context.Background(), time.Hour)
	child, cancel := context.WithCancel(d) // builds d's Done
	defer cancel()
	d.Stop()
	for i := 0; i < 100; i++ {
		next := NewDeadline(context.Background(), time.Hour)
		if next == d {
			t.Fatal("NewDeadline returned a Deadline whose Done was built")
		}
		next.Stop()
	}
	select {
	case <-child.Done():
		if err := child.Err(); !errors.Is(err, context.Canceled) {
			t.Errorf("child Err after the parent's Stop = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the child was never canceled by the parent's Stop")
	}
	if err := d.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err of the kept Deadline = %v, want Canceled", err)
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
// Done is built first, so Stop keeps the Deadline for the goroutines
// still using it.
func TestDeadlineConcurrentUse(t *testing.T) {
	for i := 0; i < 50; i++ {
		d := NewDeadline(context.Background(), time.Duration(i%3)*time.Millisecond)
		_ = d.Done()
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

// TestDeadlineAllocatesNothing: a call that checks Err and stops takes a
// pooled Deadline and gives it back, so a steady stream of calls
// allocates nothing.
func TestDeadlineAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop what it is given")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		d := NewDeadline(context.Background(), time.Second)
		deadlineSink = d
		_ = d.Err()
		d.Stop()
	})
	deadlineSink = nil
	if allocs != 0 {
		t.Errorf("NewDeadline + Err + Stop allocates %.0f times, want 0", allocs)
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
