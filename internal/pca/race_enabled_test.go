//go:build race

package pca

// raceEnabled reports whether the race detector is compiled in. The
// refit's exactness sweep runs on one goroutine and takes ten times as
// long under the detector, so it checks a twentieth of its windows.
const raceEnabled = true
