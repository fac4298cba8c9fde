// Package hothelper provides callees that hotpath's walk reaches across
// the package boundary through the dependency loader.
package hothelper

import "os"

// ReadConfig does file I/O.
func ReadConfig() []byte {
	b, _ := os.ReadFile("cfg")
	return b
}

// Pure is reachable but touches nothing forbidden.
func Pure(x int) int { return x * 2 }
