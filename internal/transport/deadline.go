package transport

import (
	"context"
	"sync"
	"time"
)

// Deadline is a context.Context that expires at a fixed instant, built
// for RPCs that finish long before it. context.WithTimeout arms a timer
// and builds a channel for every call; a Deadline is one allocation and
// builds both only when Done is called, which neither transport does. An
// in-process call checks Err, which compares the clock with the deadline;
// a TCP call hands the deadline to its connection's one shared timer.
//
// The parent's cancellation is not observed, so the parent must be one
// that cannot be canceled (its Done is nil); its values are.
type Deadline struct {
	parent   context.Context
	deadline time.Time

	mu    sync.Mutex
	done  chan struct{} // built by the first Done
	timer *time.Timer   // armed by the first Done
	err   error         // set once: DeadlineExceeded, or Canceled by Stop
}

// NewDeadline returns a context over parent that expires timeout from now.
// Call Stop when the call it bounds returns.
func NewDeadline(parent context.Context, timeout time.Duration) *Deadline {
	return &Deadline{parent: parent, deadline: time.Now().Add(timeout)}
}

// Deadline implements context.Context.
func (d *Deadline) Deadline() (time.Time, bool) { return d.deadline, true }

// Done implements context.Context. The first call builds the channel and
// arms the timer that closes it.
func (d *Deadline) Done() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done == nil {
		d.expireLocked()
		d.done = make(chan struct{})
		if d.err != nil {
			close(d.done)
		} else {
			d.timer = time.AfterFunc(time.Until(d.deadline), d.fire)
		}
	}
	return d.done
}

// Err implements context.Context: Canceled after Stop, DeadlineExceeded
// once the deadline has passed, nil before.
func (d *Deadline) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	return d.err
}

// Value implements context.Context by asking the parent.
func (d *Deadline) Value(key any) any { return d.parent.Value(key) }

// Stop releases the context. It stops the timer and closes the channel if
// Done built them, and Err reports Canceled from then on unless it has
// already reported DeadlineExceeded.
func (d *Deadline) Stop() {
	d.mu.Lock()
	d.finishLocked(context.Canceled)
	d.mu.Unlock()
}

// Rearm makes a stopped d expire timeout from now, as a new Deadline over
// the same parent would, so a caller that makes one call after another
// needs one Deadline rather than one per call. It refuses, and d stays
// stopped, once Done has been called: the timer Done armed may still
// fire, so the caller needs a new Deadline.
func (d *Deadline) Rearm(timeout time.Duration) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done != nil {
		return false
	}
	d.deadline, d.err = time.Now().Add(timeout), nil
	return true
}

func (d *Deadline) fire() {
	d.mu.Lock()
	d.finishLocked(context.DeadlineExceeded)
	d.mu.Unlock()
}

// expireLocked settles the context as expired once the clock has passed
// the deadline, so Err never reports an expiry that a built Done has not.
func (d *Deadline) expireLocked() {
	if d.err == nil && !time.Now().Before(d.deadline) {
		d.finishLocked(context.DeadlineExceeded)
	}
}

func (d *Deadline) finishLocked(err error) {
	if d.err != nil {
		return
	}
	d.err = err
	if d.timer != nil {
		d.timer.Stop()
	}
	if d.done != nil {
		close(d.done)
	}
}
