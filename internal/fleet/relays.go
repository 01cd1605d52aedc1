package fleet

import (
	"fmt"
	"sync"
	"time"

	"dirigent/internal/relay"
	"dirigent/internal/telemetry"
	"dirigent/internal/transport"
)

// The worker fleet's sibling for the relay tier: a set of real
// relay.Relay instances managed as one unit, so fleet-scale experiments
// can stand up N relays between the emulated workers and the control
// plane, kill one mid-period, and observe workers fail over while the
// control plane treats the silent relay as a correlated mass-timeout
// candidate. Like the data plane set (and unlike the emulated workers)
// these are the real component — the harness scales the tier, it does
// not fake it.

// RelaysConfig parameterizes a managed relay tier.
type RelaysConfig struct {
	// Count is the number of relays (default 4).
	Count int
	// Transport carries worker-side and CP-side RPCs for every relay.
	Transport transport.Transport
	// ControlPlanes are the CP replica addresses.
	ControlPlanes []string
	// FlushInterval tunes each relay; zero selects the relay default.
	// Harnesses park the flush loops with a very large FlushInterval and
	// drive FlushAll explicitly.
	FlushInterval time.Duration
}

// Relays is a managed relay tier.
type Relays struct {
	relays []*relay.Relay
}

// NewRelays builds the tier's relays without starting them. Relays listen
// on synthetic in-process addresses in the 10.99.0.0/16 range and share
// one metrics registry, so flush latency, batch sizes and error counts
// aggregate across the tier.
func NewRelays(cfg RelaysConfig) *Relays {
	if cfg.Count <= 0 {
		cfg.Count = 4
	}
	metrics := telemetry.NewRegistry()
	r := &Relays{}
	for i := 0; i < cfg.Count; i++ {
		id := i + 1
		r.relays = append(r.relays, relay.New(relay.Config{
			Addr:          fmt.Sprintf("10.99.%d.%d:7100", id/256, id%256),
			Transport:     cfg.Transport,
			ControlPlanes: cfg.ControlPlanes,
			FlushInterval: cfg.FlushInterval,
			Metrics:       metrics,
		}))
	}
	return r
}

// Start launches every relay concurrently. It returns the first error.
func (r *Relays) Start() error {
	errs := make([]error, len(r.relays))
	var wg sync.WaitGroup
	for i, rl := range r.relays {
		wg.Add(1)
		go func(i int, rl *relay.Relay) {
			defer wg.Done()
			errs[i] = rl.Start()
		}(i, rl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Relays returns the tier's relays in ID order.
func (r *Relays) All() []*relay.Relay { return r.relays }

// Addrs returns every relay's RPC address.
func (r *Relays) Addrs() []string {
	addrs := make([]string, len(r.relays))
	for i, rl := range r.relays {
		addrs[i] = rl.Addr()
	}
	return addrs
}

// FlushAll drives one explicit flush on every relay — harnesses that
// park the flush loops call this once per emulated heartbeat period.
func (r *Relays) FlushAll() {
	for _, rl := range r.relays {
		rl.Flush()
	}
}

// StopOne crashes relay i: no final flush, worker RPCs refused — its
// workers must fail over and the control plane must notice the silence.
func (r *Relays) StopOne(i int) {
	r.relays[i].Stop()
}

// Stop crashes every relay.
func (r *Relays) Stop() {
	var wg sync.WaitGroup
	for _, rl := range r.relays {
		wg.Add(1)
		go func(rl *relay.Relay) {
			defer wg.Done()
			rl.Stop()
		}(rl)
	}
	wg.Wait()
}
