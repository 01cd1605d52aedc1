//go:build race

// Package race reports whether the program was built with the race
// detector: for tests whose allocation counts it changes (among other
// things, its sync.Pool drops a quarter of what is put back), and for
// checks that only race builds pay for, such as transport.PutFrame
// poisoning the buffers it pools.
package race

// Enabled is true when the race detector is built in.
const Enabled = true
