// Package simhelper is a helper package that hot-path roots in simlib
// reach: its wall-clock read is flagged at its own site, whichever root
// reaches it.
package simhelper

import "time"

// Stamp reads the wall clock.
func Stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now reads the wall clock`
}
