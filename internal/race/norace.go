//go:build !race

package race

// Enabled is true when the race detector is built in.
const Enabled = false
