// Package lib holds one identifier for each case the reachability gate must
// tell apart.
package lib

// Dead is referenced by nothing: the gate reports it.
func Dead() int { return 1 }

// TestOnly is referenced only by lib_test.go: the gate reports it.
func TestOnly() int { return 2 }

// ExampleOnly is referenced only by examples/demo: the gate reports it.
func ExampleOnly() int { return 5 }

// Box's Size is called only through the anonymous interface in Size.
type Box struct{}

func (Box) Size() int { return 3 }

// Size calls Size on anything that has it.
func Size(v any) int {
	if s, ok := v.(interface{ Size() int }); ok {
		return s.Size()
	}
	return 0
}

// Square's Area is called only through shape.Areaer.
type Square struct{}

func (Square) Area() int { return 4 }

// Label's String is called only by fmt.
type Label struct{}

func (Label) String() string { return "label" }
