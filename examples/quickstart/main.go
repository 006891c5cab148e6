// Quickstart: the paper's §3 worked example driven through the Visible
// Compiler API.
//
// A compilation unit is compiled against a static environment into
// (statenv, code, imports, exports); executing its closed code against
// a dynamic environment binds its export pids. This program compiles
//
//	val a = x+y
//	val b = x+2*z
//
// against a unit providing x, y, z, prints the unit's import and
// export pids, executes it, and reads back a and b from the dynamic
// environment — exactly the example laid out in §3 of the paper.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/compiler"
	"repro/internal/interp"
)

func main() {
	session, err := compiler.NewSession(os.Stdout)
	if err != nil {
		log.Fatal(err)
	}

	// The context unit binds x, y, z (the paper's dynamic environment
	// {x -> 3, y -> 4, z -> 5}).
	if _, err := session.Run("context", "val x = 3\nval y = 4\nval z = 5"); err != nil {
		log.Fatal(err)
	}

	// Compile the paper's example source — without executing yet.
	u, err := session.Compile("example", "val a = x+y\nval b = x+2*z")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Compilation unit (paper §3):")
	fmt.Printf("  unit name:     %s\n", u.Name)
	fmt.Printf("  intrinsic pid: %s\n", u.StatPid)
	fmt.Printf("  imports:       %d pids\n", len(u.Imports))
	for i, im := range u.Imports {
		fmt.Printf("    import[%d] = %s\n", i, im.Short())
	}
	fmt.Printf("  exports:       %d slots\n", u.NumSlots)
	for i := 0; i < u.NumSlots; i++ {
		fmt.Printf("    export[%d] = %s (statpid + %d)\n", i, u.ExportPid(i).Short(), i+1)
	}

	// Execute: code is a closed function from import values to export
	// values; the dynamic environment supplies and receives them.
	if err := compiler.Execute(session.Machine, u, session.Dyn, nil, nil, 0); err != nil {
		log.Fatal(err)
	}
	session.Accept(u)

	fmt.Println("\nAfter execution (dynamic environment):")
	for _, name := range []string{"a", "b"} {
		vb, _ := session.Context.LookupVal(name)
		v, _ := session.Dyn.Lookup(vb.ExportPid)
		fmt.Printf("  %s = %s  (pid %s)\n", name, interp.String(v), vb.ExportPid.Short())
	}

	// Recompiling identical source yields the identical interface hash —
	// the property cutoff recompilation is built on.
	u2, err := session.Compile("example", "val a = x+y\nval b = x+2*z")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRecompile, same source:      statpid %s (equal: %v)\n",
		u2.StatPid.Short(), u2.StatPid == u.StatPid)

	u3, err := session.Compile("example", "(* comment *) val a = x+y\nval b = x+2*z")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Recompile, comment added:    statpid %s (equal: %v)\n",
		u3.StatPid.Short(), u3.StatPid == u.StatPid)

	u4, err := session.Compile("example", "val a = x+y\nval b = x+2*z\nval c = true")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Recompile, export added:     statpid %s (equal: %v)\n",
		u4.StatPid.Short(), u4.StatPid == u.StatPid)
}
