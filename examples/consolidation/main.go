// The §4.2 story: a batching window in front of the admission controller
// consolidates work in time (holding arrivals so disks can spin down
// between bursts) and the cluster model consolidates it in space
// (packing tenants onto fewer nodes so whole servers can power down).
package main

import (
	"fmt"
	"log"

	"energydb/internal/bench"
)

func main() {
	c, err := bench.RunConsolidation()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(c.Render())
	fmt.Println()

	cl, err := bench.RunCluster()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(cl.Render())
	fmt.Println()
	fmt.Println("Admission windows buy disk spin-downs with latency; packing tenants onto")
	fmt.Println("fewer nodes buys whole-server power-downs with migration energy.")
}
