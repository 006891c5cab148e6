// Command smlrepl is the interactive top-level loop: each input is
// compiled as a compilation unit against the session environment and
// executed, per §3 and §7 of the paper. Inputs end with ";"; "quit;"
// exits.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/repl"
)

func main() {
	cli.Name = "smlrepl"
	f := &cli.Flags{}
	f.Register(flag.CommandLine, "trace", "serve")
	flag.Parse()

	r, err := repl.New(os.Stdout)
	if err != nil {
		cli.Fatal(err)
	}
	// A long-lived REPL is the process worth watching live: each
	// "declaration unit" bumps the repl.* and exec.* counters a -serve
	// scrape sees.
	var s *cli.Setup
	if f.Trace != "" || f.Serve != "" {
		s = f.Open(false, nil)
		r.Obs = s.Col
	}
	fmt.Println("Standard ML separate-compilation REPL (quit; to exit)")
	interactErr := r.Interact(os.Stdin, os.Stdout)
	if s != nil {
		s.Flush("", nil, nil, interactErr)
	}
	if interactErr != nil {
		cli.Fatal(interactErr)
	}
}
