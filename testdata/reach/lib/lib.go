// Package lib is the library of the reachability self-test.
package lib

// Shape is an interface the program calls through.
type Shape interface{ Area() int }

// Reached is called by the program.
func Reached() Shape { return Square{side: reachedSide} }

// Unreached is called by nothing.
func Unreached() int {
	return 1
}

// Square is reached through Reached's body.
type Square struct{ side int }

// Area is reached only through the Shape interface.
func (s Square) Area() int { return s.side * s.side }

// Perimeter is in no reached interface, and no reached body selects it.
// The receiver being reached is not enough.
func (s Square) Perimeter() int { return 4 * s.side }

// Allowlisted is unreached, and the self-test allowlists it.
func Allowlisted() int { return helper() }

// helper is reached only from an allowlisted declaration.
func helper() int { return 2 }

const (
	reachedSide = 3
	// unusedLimit is read by nothing.
	unusedLimit = 9
)
