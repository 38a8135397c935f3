// Command eedb is a SQL REPL over an energy-aware database on a simulated
// server: every query prints its rows, simulated elapsed time, and joules.
//
// The shell always speaks the wire protocol through the client driver.
// By default it embeds a server in-process (over an in-memory pipe);
// -connect attaches to a remote eedb instead, and -serve exposes the
// embedded server on TCP for other shells to join.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"energydb"
	"energydb/internal/client"
	"energydb/internal/server"
	"energydb/internal/table"
)

func main() {
	objective := flag.String("objective", "time", "optimizer objective: time, energy, edp")
	disks := flag.Int("disks", 4, "number of disks on the simulated server")
	sf := flag.Float64("tpch", 0, "preload TPC-H at this scale factor (0 = none)")
	tenant := flag.String("tenant", "local", "tenant name for energy billing")
	connect := flag.String("connect", "", "attach to a served eedb at this address instead of embedding")
	serve := flag.String("serve", "", "also listen on this TCP address (e.g. :7543) for other shells")
	flag.Parse()

	var c *client.DB
	var srv *server.Server
	if *connect != "" {
		var err error
		c, err = client.Dial(*connect, *tenant)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("connected to %s as tenant %q\n", *connect, *tenant)
	} else {
		cfg := energydb.Config{Server: energydb.SmallServer(*disks)}
		switch *objective {
		case "time":
			cfg.Objective = energydb.MinTime
		case "energy":
			cfg.Objective = energydb.MinEnergy
		case "edp":
			cfg.Objective = energydb.MinEDP
		default:
			fmt.Fprintf(os.Stderr, "unknown objective %q\n", *objective)
			os.Exit(1)
		}
		db, err := energydb.Open(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *sf > 0 {
			for _, t := range energydb.GenerateTPCH(*sf, 42) {
				if err := db.LoadTable(t); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
			fmt.Printf("loaded TPC-H sf=%v: %s\n", *sf, strings.Join(db.Tables(), ", "))
		}
		srv = server.New(db)
		if *serve != "" {
			if err := srv.Listen(*serve); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("serving on %s\n", srv.Addr())
		}
		c, err = client.New(srv.Pipe(), *tenant)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	sess, err := c.Session()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("eedb — energy-aware SQL shell (end statements with ';', \\q to quit)")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("eedb> ")
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case `\q`:
			c.Close()
			if srv != nil {
				srv.Close()
			}
			return
		case `\meter`:
			printMeter(c)
			fmt.Print("eedb> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			fmt.Print("  ... ")
			continue
		}
		stmt := buf.String()
		buf.Reset()
		if err := run(c, sess, stmt); err != nil {
			fmt.Println("error:", err)
		}
		fmt.Print("eedb> ")
	}
}

// run executes one statement through the wire protocol.
func run(c *client.DB, sess *client.Session, stmt string) error {
	head := strings.ToUpper(strings.Fields(strings.TrimSpace(stmt))[0])
	switch head {
	case "EXPLAIN":
		b, err := sess.Explain(stmt)
		if err != nil {
			return err
		}
		printRows(os.Stdout, b)
		return nil
	case "SELECT":
		rows, err := sess.Query(stmt)
		if err != nil {
			return err
		}
		tab, res, err := rows.Collect()
		if err != nil {
			return err
		}
		if tab != nil {
			printRows(os.Stdout, tab.Slice(0, tab.Rows()))
		}
		fmt.Printf("%d row(s) in %.4gs, %.4gJ attributed (%.4gJ marginal + %.4gJ idle share)\n",
			res.RowCount, res.Elapsed, res.Attributed, res.Marginal, res.Shared)
		return nil
	default:
		if err := c.Exec(stmt); err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	}
}

// printRows writes the header and up to 25 rows of b as a table, each
// column padded to its widest cell plus two spaces.
func printRows(w io.Writer, b *table.Batch) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	cells := make([]string, len(b.Schema.Cols))
	for c, col := range b.Schema.Cols {
		cells[c] = col.Name
	}
	fmt.Fprintln(tw, strings.Join(cells, "\t"))
	n := b.Rows()
	shown := min(n, 25)
	for i := 0; i < shown; i++ {
		for c, v := range b.Row(i) {
			cells[c] = v.String()
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	tw.Flush()
	if shown < n {
		fmt.Fprintf(w, "... (%d rows)\n", n)
	}
}

func printMeter(c *client.DB) {
	m, err := c.Meter()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("t=%.3fs  meter %.4gJ  idle floor %.4gJ\n", m.Now, m.MeterJ, m.UnattributedJ)
	for _, t := range m.Tenants {
		fmt.Printf("  %-12s %.4gJ over %d queries, %d inserts\n", t.Tenant, t.AttributedJ, t.Queries, t.Inserts)
	}
}
