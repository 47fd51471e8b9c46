//go:build !linux

package server

import "time"

// yieldAfterStatement does nothing: the stall yield_linux.go bounds
// was measured on Linux only.
func yieldAfterStatement(time.Duration) {}
