package main

import "time"

// pacer issues the arrivals of an open loop at a fixed spacing. The clock
// is injected so a test can stall it.
type pacer struct {
	interval time.Duration
	now      func() time.Time
	sleep    func(time.Duration)
}

// run issues arrival k when start+k*interval has come, never earlier,
// until stop reports true, and returns how many it issued. It skips
// nothing: when it wakes up late, because the host stalled the process,
// every overdue arrival is issued at once with its own due time, so the
// stall is charged to the latency of the requests that were due during
// it, and shows as lateness.
func (p pacer) run(start time.Time, stop func() bool, issue func(k int, due time.Time, late time.Duration)) int {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * p.interval)
		for {
			if stop() {
				return k
			}
			d := due.Sub(p.now())
			if d <= 0 {
				issue(k, due, -d)
				break
			}
			p.sleep(d)
		}
	}
}
