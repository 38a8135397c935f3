// The paper's Figure 1 story, told on the session API: concurrent client
// sessions submit the TPC-H mix, the admission controller grants each
// query its parallelism from the cores that are free, and every query
// comes back with an attributed energy bill that sums to the wall meter.
// Then the classic sweep: re-partition the database across more and more
// disks and find the energy-efficiency knee at an interior configuration
// — the fastest system is not the most efficient one.
package main

import (
	"fmt"
	"log"

	"energydb/internal/bench"
)

func main() {
	// Act 1: eight concurrent sessions on one small server — per-query
	// energy attribution under admission-controlled concurrency.
	st, err := bench.RunStreams(bench.StreamsConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(st.Render())
	fmt.Println()

	// Act 2: the Figure 1 disk-count sweep, 24 such streams per point.
	res, err := bench.RunFigure1()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())
	fmt.Println()
	fmt.Printf("Every disk beyond %d adds more watts than it removes seconds.\n", res.Best().Disks)
}
