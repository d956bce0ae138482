// Command app reaches every fixture package and every identifier the gate
// must not report.
package main

import (
	"fmt"

	"reachfixture/internal/lib"
	"reachfixture/internal/shape"
)

func main() {
	fmt.Println(lib.Size(lib.Box{}), shape.Of(lib.Square{}), lib.Label{})
}
