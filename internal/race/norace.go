//go:build !race

// Package race reports whether the binary was built with the race
// detector, which instruments every allocation; allocation-count tests
// skip under it.
package race

// Enabled is true under -race.
const Enabled = false
