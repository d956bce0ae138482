// Package shape declares the named interface lib.Square is reached through.
package shape

// Areaer is implemented by lib.Square.
type Areaer interface{ Area() int }

// Of calls Area through the interface.
func Of(a Areaer) int { return a.Area() }
