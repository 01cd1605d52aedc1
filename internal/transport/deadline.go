package transport

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// epoch is the instant every Deadline's expiry is measured from.
// time.Since(epoch) reads only the monotonic clock, which costs about half
// of time.Now, which reads the wall clock too.
var epoch = time.Now()

// Deadline is a context.Context that expires timeout after it is first
// consulted, built for RPCs that finish long before it. context.WithTimeout
// reads the clock, arms a timer and builds a channel for every call; a
// Deadline comes from a pool, reads no clock until a transport asks it,
// and builds the channel and timer only when Done is called, which
// neither transport does. The first consult (Err, Deadline or Done) starts
// the clock. A TCP call's Deadline starts it as the call begins and hands
// the expiry to its connection's one shared timer. An in-process call does
// not consult it at all: a positive timeout that has not started cannot
// have run out, so its pre-check asks only the parent (ended), and a
// Deadline nobody consulted goes back to the pool at Stop without its
// mutex. Every caller hands its Deadline to a call right after
// NewDeadline, so the bound is the one a deadline set at NewDeadline would
// give.
//
// The parent's values are the Deadline's, and a parent that can be
// canceled ends it too: Err reports the parent's error from then on, and
// a TCP call stops waiting for its answer.
type Deadline struct {
	parent  context.Context
	timeout time.Duration

	// consulted mirrors started for the readers that take no lock, ended
	// and Stop: it is set and cleared with it, under mu. Until the first
	// consult sets it the timeout cannot have run out, no Done exists and
	// nothing but the caller holds d.
	consulted atomic.Bool

	mu      sync.Mutex
	started bool          // the clock has started: expiry is set
	expiry  time.Duration // since epoch
	done    chan struct{} // built by the first Done
	timer   *time.Timer   // armed by the first Done
	unhook  func() bool   // stops the first Done's watch on the parent
	err     error         // set once: DeadlineExceeded, the parent's error, or Canceled by Stop
}

// deadlinePool holds the stopped Deadlines whose Done was never built.
var deadlinePool = sync.Pool{New: func() any { return new(Deadline) }}

// NewDeadline returns a context over parent that expires timeout after
// its first consult; a timeout ≤ 0 expires at it. It reads no clock. Call
// Stop when the call it bounds returns.
func NewDeadline(parent context.Context, timeout time.Duration) *Deadline {
	d := deadlinePool.Get().(*Deadline)
	d.parent, d.timeout = parent, timeout
	return d
}

// Deadline implements context.Context. It starts the clock if nothing
// has yet, and returns the same instant on every call.
func (d *Deadline) Deadline() (time.Time, bool) {
	d.mu.Lock()
	if !d.started {
		d.nowLocked()
	}
	at := epoch.Add(d.expiry)
	d.mu.Unlock()
	return at, true
}

// Done implements context.Context. The first call builds the channel and
// arms the timer that closes it for what is left of the timeout, and has
// a parent that can be canceled close it too.
func (d *Deadline) Done() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done == nil {
		now := d.expireLocked()
		d.done = make(chan struct{})
		if d.err != nil {
			close(d.done)
		} else {
			d.timer = time.AfterFunc(d.expiry-now, d.fire)
			if d.parent.Done() != nil {
				d.unhook = context.AfterFunc(d.parent, d.parentDone)
			}
		}
	}
	return d.done
}

// Err implements context.Context: Canceled after Stop, the parent's error
// once the parent is canceled, DeadlineExceeded once the timeout has run
// out, nil before.
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
// d, so it goes back to the pool, its clock not started, for a later
// NewDeadline, and the caller must not use it again. A Deadline nobody
// consulted has no Done and nothing to settle, and goes back without
// taking its mutex.
func (d *Deadline) Stop() {
	if !d.consulted.Load() {
		d.parent = nil
		deadlinePool.Put(d)
		return
	}
	d.mu.Lock()
	d.finishLocked(context.Canceled)
	reuse := d.done == nil
	if reuse {
		d.parent, d.err, d.started = nil, nil, false
		d.consulted.Store(false)
	}
	d.mu.Unlock()
	if reuse {
		deadlinePool.Put(d)
	}
}

// ended reports ctx.Err() for a call about to run. A *Deadline nobody has
// consulted, with a positive timeout, cannot have run out, so of it only
// the parent is asked: no mutex, no clock read, and its timeout does not
// start.
func ended(ctx context.Context) error {
	if d, ok := ctx.(*Deadline); ok && d.timeout > 0 && !d.consulted.Load() {
		return d.parent.Err()
	}
	return ctx.Err()
}

func (d *Deadline) fire() {
	d.mu.Lock()
	d.finishLocked(context.DeadlineExceeded)
	d.mu.Unlock()
}

func (d *Deadline) parentDone() {
	d.mu.Lock()
	d.finishLocked(d.parent.Err())
	d.mu.Unlock()
}

// nowLocked reads the clock, as a time since epoch, and starts the
// timeout at that reading if it has not started.
func (d *Deadline) nowLocked() time.Duration {
	now := time.Since(epoch)
	if !d.started {
		d.started, d.expiry = true, now+d.timeout
		if d.timeout > 0 && d.expiry < now {
			d.expiry = math.MaxInt64
		}
		d.consulted.Store(true)
	}
	return now
}

// expireLocked settles the context once the parent is canceled or the
// timeout has run out, so Err never reports an end that a built Done has
// not. Unless d had already ended, it reads the clock once, starting the
// timeout at the first consult, and returns the reading. It reads it even
// when the parent has ended, so that every consult sets consulted, and a
// Done exists only on a Deadline Stop takes the lock for.
func (d *Deadline) expireLocked() (now time.Duration) {
	if d.err != nil {
		return 0
	}
	now = d.nowLocked()
	if err := d.parent.Err(); err != nil {
		d.finishLocked(err)
	} else if now >= d.expiry {
		d.finishLocked(context.DeadlineExceeded)
	}
	return now
}

func (d *Deadline) finishLocked(err error) {
	if d.err != nil {
		return
	}
	d.err = err
	if d.timer != nil {
		d.timer.Stop()
	}
	if d.unhook != nil {
		d.unhook()
	}
	if d.done != nil {
		close(d.done)
	}
}
