// Command smlrepl is the interactive top-level loop: each input is
// compiled as a compilation unit against the session environment and
// executed, per §3 and §7 of the paper. Inputs end with ";"; "quit;"
// exits.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"repro/internal/obs"
	"repro/internal/obsserve"
	"repro/internal/repl"
)

func main() {
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of the session to this file on exit")
	serveAddr := flag.String("serve", "", "serve /metrics and /debug/pprof on this address for the session's lifetime")
	flag.Parse()

	r, err := repl.New(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smlrepl:", err)
		os.Exit(1)
	}
	var col *obs.Collector
	if *tracePath != "" || *serveAddr != "" {
		col = obs.New()
		r.Obs = col
	}
	if *serveAddr != "" {
		// A long-lived REPL is the process worth watching live: each
		// "declaration unit" bumps the repl.* and exec.* counters the
		// scrape sees.
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smlrepl:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "smlrepl: listening on %s\n", ln.Addr())
		go http.Serve(ln, obsserve.New(col, nil).Handler())
	}
	fmt.Println("Standard ML separate-compilation REPL (quit; to exit)")
	interactErr := r.Interact(os.Stdin, os.Stdout)
	if col != nil && *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smlrepl:", err)
			os.Exit(1)
		}
		if err := col.WriteTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "smlrepl:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "smlrepl:", err)
			os.Exit(1)
		}
	}
	if interactErr != nil {
		fmt.Fprintln(os.Stderr, "smlrepl:", interactErr)
		os.Exit(1)
	}
}
