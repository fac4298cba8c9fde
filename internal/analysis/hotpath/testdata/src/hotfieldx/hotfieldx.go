// Package hotfieldx stores a function literal in an exported struct
// field, so a sibling package's hotpath roots must walk the literal's
// body in this package's type-checking context.
package hotfieldx

import "fmt"

// Gauge samples a reading through a field-stored callback.
type Gauge struct {
	Sample func() int64
}

// New binds the default sampler.
func New() *Gauge {
	return &Gauge{Sample: func() int64 {
		n, _ := fmt.Println("sample")
		return int64(n)
	}}
}
