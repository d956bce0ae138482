// Command demo is an example: what only it references is still reported.
package main

import (
	"fmt"

	"reachfixture/internal/lib"
)

func main() {
	fmt.Println(lib.ExampleOnly())
}
