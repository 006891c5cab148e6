// Visiblecompiler: metaprogramming with the compiler-as-library (§8).
//
// The paper's "Visible Compiler" exposes compilation, hashing,
// pickling, and linkage as ordinary functions so that client programs
// — compilation managers, theorem provers, user build tools — drive
// them directly. This program is such a client: it implements a tiny
// "plugin system" where plugins are SML source strings compiled at
// run time against a host-provided API unit, type-checked against the
// host's interface, pickled to bytes, rehydrated in a *fresh* session
// (as a separate process would), linked type-safely, and executed.
//
// Run with: go run ./examples/visiblecompiler
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"slices"

	"repro/internal/binfile"
	"repro/internal/compiler"
	"repro/internal/linker"
)

// hostAPI is the interface the host program offers to plugins.
const hostAPI = `
structure Host = struct
  val version = "1.0"
  fun emit s = print ("[host] " ^ s ^ "\n")
  fun combine (a, b) = a * 10 + b
end
`

// plugins are user-supplied SML fragments compiled at run time.
var plugins = map[string]string{
	"greeter": `
		val _ = Host.emit ("hello from plugin, host version " ^ Host.version)
		val score = Host.combine (4, 2)
		val _ = Host.emit ("combine (4, 2) = " ^ Int.toString score)
	`,
	"broken": `
		val oops = Host.combine "not a pair"
	`,
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run drives the three phases, printing to w.
func run(w io.Writer) error {
	// Phase 1: a "build machine" session compiles the host API and the
	// plugins, producing portable bin files.
	build, err := compiler.NewSession(w)
	if err != nil {
		return err
	}
	hostUnit, err := build.Run("host", hostAPI)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host interface pid: %s\n", hostUnit.StatPid.Short())

	bins := map[string][]byte{}
	hostBin, err := binfile.Encode(hostUnit, nil)
	if err != nil {
		return err
	}
	bins["host"] = hostBin

	names := make([]string, 0, len(plugins))
	for name := range plugins {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		u, err := build.Compile("plugin-"+name, plugins[name])
		if err != nil {
			fmt.Fprintf(w, "plugin %q rejected at compile time:\n  %v\n", name, err)
			continue
		}
		data, err := binfile.Encode(u, nil)
		if err != nil {
			return err
		}
		bins["plugin-"+name] = data
		fmt.Fprintf(w, "plugin %q compiled: %d bin bytes, imports %d pids\n",
			name, len(data), len(u.Imports))
	}

	// Phase 2: a fresh "production" session (fresh basis, fresh
	// prelude) rehydrates the bins and runs them under type-safe
	// linkage. Nothing but bytes crossed the boundary.
	fmt.Fprintln(w, "\n--- fresh session: rehydrate, verify, link, run ---")
	prod, err := compiler.NewSession(w)
	if err != nil {
		return err
	}
	var units []*compiler.Unit
	for _, name := range []string{"host", "plugin-greeter"} {
		u, err := binfile.Read(bins[name], prod.Index, nil, nil)
		if err != nil {
			return fmt.Errorf("rehydrate %s: %v", name, err)
		}
		prod.Index.Add(u.StatPid, u.Owned)
		units = append(units, u)
	}
	if err := linker.Run(prod.Machine, units, prod.Dyn, nil, nil); err != nil {
		return err
	}

	// Phase 3: demonstrate the link-time safety net. Recompile the
	// host with a *changed interface* and show the stale plugin bin is
	// refused before execution.
	fmt.Fprintln(w, "\n--- host interface changed; stale plugin must not link ---")
	prod2, err := compiler.NewSession(w)
	if err != nil {
		return err
	}
	newHost, err := prod2.Run("host", `
		structure Host = struct
		  val version = "2.0"
		  fun emit s = print ("[host2] " ^ s ^ "\n")
		  fun combine (a, b, c) = a * 100 + b * 10 + c  (* arity changed! *)
		end
	`)
	if err != nil {
		return err
	}
	stalePlugin, err := binfile.Read(bins["plugin-greeter"], prod2.Index, nil, nil)
	if err != nil {
		// Rehydration itself may already fail: the old host interface
		// is not in this session's context.
		fmt.Fprintf(w, "rehydration refused the stale bin: %v\n", err)
		return nil
	}
	errs := linker.Verify([]*compiler.Unit{newHost, stalePlugin}, prod2.Dyn)
	if len(errs) == 0 {
		return errors.New("BUG: stale plugin linked against incompatible host")
	}
	fmt.Fprintf(w, "linker refused the stale bin: %v\n", errs[0])
	return nil
}
