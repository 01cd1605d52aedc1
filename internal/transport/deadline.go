package transport

import (
	"context"
	"sync"
	"time"
)

// Deadline is a context.Context that expires at a fixed instant, built
// for RPCs that finish long before it. context.WithTimeout arms a timer
// and builds a channel for every call; a Deadline comes from a pool and
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

// deadlinePool holds the stopped Deadlines whose Done was never built.
var deadlinePool = sync.Pool{New: func() any { return new(Deadline) }}

// NewDeadline returns a context over parent that expires timeout from now.
// Call Stop when the call it bounds returns.
func NewDeadline(parent context.Context, timeout time.Duration) *Deadline {
	d := deadlinePool.Get().(*Deadline)
	d.parent, d.deadline = parent, time.Now().Add(timeout)
	return d
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

// Stop releases the context, once, when the call it bounds has returned.
// If Done was built, Stop stops the timer and closes the channel, and d
// stays as it is, Canceled unless it had already expired: a timer or a
// context derived from d may still hold it. Otherwise nothing else holds
// d, so it goes back to the pool for a later NewDeadline, and the caller
// must not use it again.
func (d *Deadline) Stop() {
	d.mu.Lock()
	d.finishLocked(context.Canceled)
	reuse := d.done == nil
	if reuse {
		d.parent, d.err = nil, nil
	}
	d.mu.Unlock()
	if reuse {
		deadlinePool.Put(d)
	}
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
