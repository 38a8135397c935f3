// Quickstart: open an energy-aware database on a simulated server, create
// a table, and watch every query return joules alongside rows.
package main

import (
	"fmt"
	"log"

	"energydb"
)

func main() {
	db, err := energydb.Open(energydb.Config{
		Server:    energydb.SmallServer(4), // 8 cores, 4 x 15K disks, metered
		Objective: energydb.MinTime,
	})
	if err != nil {
		log.Fatal(err)
	}

	statements := []string{
		"CREATE TABLE sensors (id BIGINT, room VARCHAR(12), temp DOUBLE, day DATE)",
		`INSERT INTO sensors VALUES
			(1, 'lab', 21.5, DATE '2009-01-04'),
			(2, 'lab', 22.0, DATE '2009-01-05'),
			(3, 'office', 19.5, DATE '2009-01-04'),
			(4, 'server-room', 31.0, DATE '2009-01-05')`,
	}
	for _, s := range statements {
		if _, err := db.Exec(s); err != nil {
			log.Fatal(err)
		}
	}

	res, err := db.Exec(`
		SELECT room, COUNT(*) AS n, AVG(temp) AS avg_temp
		FROM sensors
		GROUP BY room
		ORDER BY avg_temp DESC`)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < res.Rows.Rows(); i++ {
		row := res.Rows.Slice(i, i+1).Row(0)
		fmt.Printf("%-12s n=%s avg=%s\n", row[0].String(), row[1].String(), row[2].String())
	}
	fmt.Printf("\nsimulated elapsed: %v   energy: %v   efficiency: %.3g rows/J\n",
		res.Elapsed, res.Joules, float64(res.Efficiency()))
	fmt.Println("\nper-component breakdown:")
	fmt.Print(db.EnergyReport())
}
