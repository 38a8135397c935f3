// eelint is the executor-contract multichecker: it runs the analyzer
// suite in internal/lint over the packages matching its arguments and
// reports every contract violation with file:line positions.
//
//	go run ./cmd/eelint ./...          # whole module, test files included
//	go run ./cmd/eelint ./internal/exec
//
// Exit status is 1 when any diagnostic is reported, 0 on a clean tree.
package main

import (
	"flag"
	"fmt"
	"os"

	"energydb/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: eelint [packages]\n")
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader("")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags, err := loader.LoadAndRun(lint.Suite(), patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Printf("%s\n", d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "eelint: %d contract violation(s)\n", len(diags))
		os.Exit(1)
	}
}
