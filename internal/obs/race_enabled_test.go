//go:build race

package obs

// raceEnabled reports whether the race detector is compiled in. The
// formatter's exactness sweep runs on one goroutine and takes ten times
// as long under the detector, so it samples a twentieth of its values.
const raceEnabled = true
