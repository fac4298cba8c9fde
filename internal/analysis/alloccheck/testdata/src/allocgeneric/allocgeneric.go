// Package allocgeneric pins how alloccheck names a method whose
// receiver has two type parameters: the receiver's type without them.
package allocgeneric

// Box is a generic map wrapper.
type Box[K comparable, V any] struct{ m map[K]V }

// M rebuilds the map on every call.
//
//amoeba:noalloc
func (b *Box[K, V]) M() {
	b.m = make(map[K]V) // want `make allocates in //amoeba:noalloc function Box\.M:`
}
