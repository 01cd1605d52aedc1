package transport

import (
	"context"
	"errors"
	"math"
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
// its clock not started, Err nil again, its whole timeout ahead and Value
// asking the new parent.
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
			if next.started {
				t.Fatal("a reused Deadline came back with its clock started")
			}
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

// TestDeadlineEndsWithItsParent: a parent that can be canceled ends the
// Deadline: Err reports the parent's error whether or not Done was built,
// and a built Done closes.
func TestDeadlineEndsWithItsParent(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	plain := NewDeadline(parent, time.Hour)
	watched := NewDeadline(parent, time.Hour)
	done := watched.Done()
	if plain.Err() != nil || watched.Err() != nil || isClosed(done) {
		t.Fatal("ended before the deadline or the parent's cancellation")
	}
	cancel()
	if err := plain.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err after the parent was canceled = %v, want Canceled", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Done never closed after the parent was canceled")
	}
	if err := watched.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err with Done built = %v, want Canceled", err)
	}
	plain.Stop()
	watched.Stop()
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

// TestDeadlineStartsAtFirstConsult: NewDeadline reads no clock. A
// Deadline first consulted 50 ms after it was made still has its whole
// timeout, whichever of Err, Deadline and Done consults it first.
func TestDeadlineStartsAtFirstConsult(t *testing.T) {
	const timeout = 100 * time.Millisecond
	for _, first := range []string{"Err", "Deadline", "Done"} {
		d := NewDeadline(context.Background(), timeout)
		time.Sleep(50 * time.Millisecond)
		start := time.Now()
		switch first {
		case "Err":
			if err := d.Err(); err != nil {
				t.Fatalf("first consult by Err 50ms after NewDeadline: Err = %v, want nil", err)
			}
		case "Deadline":
			_, _ = d.Deadline()
		case "Done":
			if isClosed(d.Done()) {
				t.Fatal("first consult by Done 50ms after NewDeadline: Done closed")
			}
		}
		end := time.Now()
		at, _ := d.Deadline()
		if at.Before(start.Add(timeout)) || at.After(end.Add(timeout)) {
			t.Errorf("first consult by %s: Deadline() is %v after the consult began, want the whole %v", first, at.Sub(start), timeout)
		}
		if err := waitErr(t, d); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("first consult by %s: Err after the timeout = %v, want DeadlineExceeded", first, err)
		}
		if time.Now().Before(at) {
			t.Errorf("first consult by %s: expired before its Deadline()", first)
		}
		d.Stop()
	}
}

// TestDeadlineIsStable: Deadline() returns the same instant on every
// call, before and after the Deadline expires and is stopped.
func TestDeadlineIsStable(t *testing.T) {
	d := NewDeadline(context.Background(), 5*time.Millisecond)
	at, ok := d.Deadline()
	if !ok {
		t.Fatal("Deadline() reported no deadline")
	}
	check := func(when string) {
		t.Helper()
		if got, _ := d.Deadline(); got != at {
			t.Errorf("Deadline() %s = %v, want the first call's %v", when, got, at)
		}
	}
	for i := 0; i < 100; i++ {
		check("on a later call")
	}
	_ = d.Err()
	check("after Err")
	_ = waitErr(t, d)
	check("after expiry")
	<-d.Done()
	check("after Done")
	d.Stop()
	check("after Stop")
}

// TestDeadlineNonPositiveTimeout: a timeout ≤ 0 expires at the first
// consult, whichever it is.
func TestDeadlineNonPositiveTimeout(t *testing.T) {
	for _, timeout := range []time.Duration{0, -time.Second} {
		byErr := NewDeadline(context.Background(), timeout)
		if err := byErr.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("timeout %v: Err at the first consult = %v, want DeadlineExceeded", timeout, err)
		}
		byErr.Stop()

		byDone := NewDeadline(context.Background(), timeout)
		if !isClosed(byDone.Done()) {
			t.Errorf("timeout %v: Done at the first consult is open", timeout)
		}
		byDone.Stop()

		byDeadline := NewDeadline(context.Background(), timeout)
		if at, _ := byDeadline.Deadline(); at.After(time.Now()) {
			t.Errorf("timeout %v: Deadline() at the first consult is %v in the future", timeout, time.Until(at))
		}
		if err := byDeadline.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("timeout %v: Err after Deadline() = %v, want DeadlineExceeded", timeout, err)
		}
		byDeadline.Stop()
	}
}

// TestDeadlineLongestTimeout: a timeout too long to add to the clock's
// reading expires at the end of time, not at once.
func TestDeadlineLongestTimeout(t *testing.T) {
	d := NewDeadline(context.Background(), math.MaxInt64)
	defer d.Stop()
	if err := d.Err(); err != nil {
		t.Fatalf("Err with the longest timeout = %v, want nil", err)
	}
	if at, _ := d.Deadline(); time.Until(at) < 100*365*24*time.Hour {
		t.Errorf("Deadline() with the longest timeout is %v away, want a century or more", time.Until(at))
	}
}

// TestDeadlineConcurrentFirstConsults: goroutines that consult a fresh
// Deadline at once, by Deadline, Err or Done, start one clock: all of them
// read the same instant (run with -race).
func TestDeadlineConcurrentFirstConsults(t *testing.T) {
	const consulters = 6
	for i := 0; i < 50; i++ {
		d := NewDeadline(context.Background(), time.Hour)
		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
			ats   [consulters]time.Time
		)
		for g := 0; g < consulters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				switch g % 3 {
				case 1:
					_ = d.Err()
				case 2:
					_ = d.Done()
				}
				ats[g], _ = d.Deadline()
			}(g)
		}
		close(start)
		wg.Wait()
		for g, at := range ats {
			if at != ats[0] {
				t.Fatalf("round %d: consulter %d read %v, consulter 0 %v; want one instant", i, g, at, ats[0])
			}
		}
		d.Stop()
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
