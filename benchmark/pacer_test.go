package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on; stallAt makes the sleep that
// crosses it overshoot by stall, as a SIGSTOP of the process would.
type fakeClock struct {
	t       time.Time
	stallAt time.Time
	stall   time.Duration
}

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleep(d time.Duration) {
	before := c.t
	c.t = c.t.Add(d)
	if c.stall > 0 && before.Before(c.stallAt) && !c.t.Before(c.stallAt) {
		c.t = c.t.Add(c.stall)
		c.stall = 0
	}
}

func TestPacerUniformSpacing(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start}
	p := pacer{interval: 2 * time.Millisecond, now: clk.now, sleep: clk.sleep}
	n := 0
	issued := p.run(start, func() bool { return n == 500 }, func(k int, due time.Time, late time.Duration) {
		if k != n {
			t.Fatalf("arrival %d issued as number %d", k, n)
		}
		if want := start.Add(time.Duration(k) * 2 * time.Millisecond); !due.Equal(want) || !clk.now().Equal(want) || late != 0 {
			t.Fatalf("arrival %d: due %v issued at %v late %v, want all at %v", k, due, clk.now(), late, want)
		}
		n++
	})
	if issued != 500 {
		t.Fatalf("issued %d arrivals, want 500", issued)
	}
}

// A 1 s stall of the generator is charged to the requests that were due
// during it: they are all issued when it ends, none is skipped, each keeps
// its own due time (so its latency includes the wait), and the lateness
// histogram that feeds gen.late_us_p99 sees the stall.
func TestPacerChargesStallToDueRequests(t *testing.T) {
	start := time.Unix(1000, 0)
	const interval = 2 * time.Millisecond
	clk := &fakeClock{t: start, stallAt: start.Add(300 * time.Millisecond), stall: time.Second}
	p := pacer{interval: interval, now: clk.now, sleep: clk.sleep}
	var late hist
	var lates []time.Duration
	n := 0
	p.run(start, func() bool { return n == 1000 }, func(k int, due time.Time, l time.Duration) {
		if want := start.Add(time.Duration(k) * interval); !due.Equal(want) {
			t.Fatalf("arrival %d due %v, want %v", k, due, want)
		}
		if got := clk.now().Sub(due); got != l {
			t.Fatalf("arrival %d: reported lateness %v, clock says %v", k, l, got)
		}
		late.add(int64(l))
		lates = append(lates, l)
		n++
	})
	// Arrival 150 is due at 300 ms, where the stall hits: it and the 500
	// due during the stalled second are issued together at 1.3 s.
	for k, l := range lates {
		want := time.Duration(0)
		if due := time.Duration(k) * interval; due >= 300*time.Millisecond && due < 1300*time.Millisecond {
			want = 1300*time.Millisecond - due
		}
		if l != want {
			t.Fatalf("arrival %d late by %v, want %v", k, l, want)
		}
	}
	if p99 := time.Duration(late.quantile(0.99)); p99 < 900*time.Millisecond {
		t.Errorf("lateness p99 %v does not show the 1 s stall", p99)
	}
	if p50 := time.Duration(late.quantile(0.25)); p50 != 0 {
		t.Errorf("lateness p25 %v: arrivals outside the stall should be on time", p50)
	}
}
