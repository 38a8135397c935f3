// The paper's Figure 2 story: on a 90 W CPU fed by 5 W flash, compressing
// the table makes the scan faster and LESS energy-efficient at once.
package main

import (
	"fmt"
	"log"

	"energydb/internal/bench"
)

func main() {
	res, err := bench.RunFigure2()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())
	fmt.Println()
	fmt.Println("Compression trades CPU cycles for disk bandwidth. Here the CPU is 18x")
	fmt.Println("hungrier than the flash array, so the faster plan burns more joules —")
	fmt.Println("optimizing for performance is not optimizing for energy.")
}
