// Command app is the program of the reachability self-test.
package main

import (
	"fmt"

	"example.com/reach/lib"
)

func main() { fmt.Println(lib.Reached().Area()) }
