// Package sim is a stub of the real amoeba/internal/sim for hotpath
// tests: the analyzer matches the Simulator scheduling methods by
// package-path suffix and roots its walk at their callback arguments.
package sim

// Time is simulated seconds.
type Time float64

// Simulator is the scheduling stub.
type Simulator struct{ now Time }

// At schedules fn at an absolute simulated time.
func (s *Simulator) At(at Time, fn func()) {}

// Stamp is a reserved tie-break sequence number.
type Stamp struct{ n uint64 }

// Reserve takes a sequence number for a later AtStamp.
func (s *Simulator) Reserve() Stamp { return Stamp{} }

// AtStamp schedules fn at an absolute simulated time under a reserved
// stamp.
func (s *Simulator) AtStamp(at Time, st Stamp, fn func()) {}

// After schedules fn after a simulated delay.
func (s *Simulator) After(delay float64, fn func()) {}

// Every schedules fn on a simulated period.
func (s *Simulator) Every(period float64, fn func()) (stop func()) { return func() {} }
