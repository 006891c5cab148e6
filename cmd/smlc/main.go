// Command smlc is the batch compiler: it compiles SML source files,
// discovering their dependency order automatically (§6), and writes one
// bin file per unit (§3, §6 of the paper). It prints each unit's
// intrinsic static pid and import pids — the identities type-safe
// linkage is built on.
//
// Compilation runs on the parallel DAG scheduler shared with irm and
// smlrun: -j sets the worker count (0 = one per core), and the bin
// files written are identical whatever -j (DESIGN.md §4e).
//
// When an irm daemon is reachable — $IRM_DAEMON_SOCKET is set, or
// -daemon names a socket — smlc dispatches the sources inline over
// POST /v1/compile (PROTOCOL.md) and writes the returned bin files,
// which are byte-identical to an in-process run; otherwise it compiles
// in-process as before. -daemon off disables dispatch.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/daemon"
)

// binDirStore adapts the compile-only use case to the manager's Store:
// every Save becomes a bin file in the output directory. Load always
// misses, so each smlc run compiles everything fresh. The manager
// treats save errors as non-fatal (the build continues uncached), but
// an smlc run whose whole point is the bin files must not: the first
// error is kept and reported after the build.
type binDirStore struct {
	dir   string
	paths map[string]string // unit name -> written bin path
	err   error             // first failed write
}

func (s *binDirStore) Load(name string) (*core.Entry, error) { return nil, nil }

func (s *binDirStore) Save(name string, e *core.Entry) error {
	path := filepath.Join(s.dir, strings.TrimSuffix(name, ".sml")+".bin")
	if err := os.WriteFile(path, e.Bin, 0o644); err != nil {
		if s.err == nil {
			s.err = err
		}
		return err
	}
	s.paths[name] = path
	return nil
}

func main() {
	cli.Name = "smlc"
	f := &cli.Flags{ReportStderr: true}
	f.Register(flag.CommandLine, "j", "trace", "report")
	outDir := flag.String("d", ".", "directory for bin files")
	verbose := flag.Bool("v", false, "print interfaces and imports")
	daemonMode := flag.String("daemon", "auto", "daemon dispatch: auto ($IRM_DAEMON_SOCKET), off, or a socket path")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: smlc [-d dir] [-j n] [-v] [-trace out.json] [-report json] [-daemon auto|off|socket] file.sml ...")
		os.Exit(2)
	}
	f.Validate()

	var files []core.File
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			cli.Fatal(err)
		}
		files = append(files, core.File{Name: filepath.Base(path), Source: string(src)})
	}

	// Daemon dispatch: with a reachable daemon socket — named by
	// -daemon or $IRM_DAEMON_SOCKET — compile the sources inline over
	// /v1/compile. smlc has no store to derive a socket from, so
	// "auto" means the environment variable only. The local-only
	// telemetry surfaces (-trace, -report) force the in-process path;
	// any probe failure falls back to it silently.
	if *daemonMode != "off" && f.Trace == "" && f.Report == "" {
		socket := *daemonMode
		if socket == "auto" {
			socket = os.Getenv(daemon.SocketEnv)
		}
		if socket != "" && compileViaDaemon(socket, files, *outDir, f.Jobs, *verbose) {
			return
		}
	}

	s := f.Open(false, nil)
	store := &binDirStore{dir: *outDir, paths: map[string]string{}}
	s.M.Store = store
	session, err := s.M.Build(files)
	if err != nil {
		cli.Fatal(err)
	}
	if store.err != nil {
		cli.Fatal(store.err)
	}

	// Report units in the order given on the command line, whatever
	// order the scheduler compiled them in.
	byName := map[string]int{}
	for i, u := range session.Units {
		byName[u.Name] = i
	}
	for _, f := range files {
		i, ok := byName[f.Name]
		if !ok {
			continue
		}
		u := session.Units[i]
		fmt.Printf("%s: interface %s -> %s\n", u.Name, u.StatPid.Short(), store.paths[u.Name])
		if *verbose {
			for k, im := range u.Imports {
				fmt.Printf("  import[%d] %s\n", k, im)
			}
			for _, w := range u.Warnings {
				fmt.Printf("  warning: %s\n", w)
			}
		}
	}

	s.Flush("", nil, struct {
		Schema   string           `json:"schema"`
		Tool     string           `json:"tool"`
		Units    int              `json:"units"`
		Counters map[string]int64 `json:"counters"`
	}{"smlc-report/1", "smlc", flag.NArg(), s.Col.Counters()}, nil)
}

// compileViaDaemon sends the sources to the daemon's /v1/compile and
// writes the returned bin files, printing the same per-unit lines as
// the in-process path. Returns false (caller compiles in-process) when
// no live daemon answers or the daemon rejects with a backpressure
// code (queue_full, draining — PROTOCOL.md §9); daemon-side compile
// failures are fatal, like their local equivalents.
func compileViaDaemon(socket string, files []core.File, outDir string, jobs int, verbose bool) bool {
	client := daemon.NewClient(socket)
	if _, err := client.Probe(); err != nil {
		return false
	}
	req := daemon.CompileRequest{Jobs: jobs, Client: fmt.Sprintf("smlc/%d", os.Getpid())}
	for _, f := range files {
		req.Units = append(req.Units, daemon.SourceUnit{Name: f.Name, Source: f.Source})
	}
	resp, err := client.Compile(req)
	if daemon.IsBackpressure(err) {
		return false
	}
	if err != nil {
		cli.Fatal(err)
	}
	for _, u := range resp.Units {
		path := filepath.Join(outDir, strings.TrimSuffix(u.Name, ".sml")+".bin")
		if err := os.WriteFile(path, u.Bin, 0o644); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("%s: interface %s -> %s\n", u.Name, u.PidShort, path)
		if verbose {
			for k, im := range u.Imports {
				fmt.Printf("  import[%d] %s\n", k, im)
			}
			for _, w := range u.Warnings {
				fmt.Printf("  warning: %s\n", w)
			}
		}
	}
	return true
}
