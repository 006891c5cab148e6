package main

// `irm watch`: the continuous rebuild loop. The command acquires the
// store lock once for the whole session (the lock heartbeat keeps it
// fresh through quiet periods), then hands the Manager an Unlocked view
// of the store so per-build re-acquisition cannot deadlock against the
// session's own hold.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/watch"
	"repro/internal/workload"
)

func cmdWatch(args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	f := cli.New()
	f.Register(fs, "store", "policy", "j", "v", "history", "serve", "report")
	fs.Lookup("v").Usage = "log one line per iteration"
	poll := fs.Duration("poll", 200*time.Millisecond, "idle polling period")
	debounce := fs.Duration("debounce", 50*time.Millisecond, "quiet time required after a change before rebuilding")
	maxBuilds := fs.Int("n", 0, "exit after n rebuilds (0 = run until interrupted)")
	drive := fs.Int("drive", 0, "scripted session: apply n generated edits, one per rebuild, then exit")
	driveSeed := fs.Int64("drive-seed", 1, "seed of the scripted edit stream")
	groupPath := cli.GroupArg(fs, args)
	if groupPath == "" {
		usage()
	}
	// Hold the store lock for the whole session: one watcher owns the
	// store, and the heartbeat (core/lock.go) keeps the lockfile fresh
	// however long the session idles. The Manager gets an Unlocked view
	// so its per-build Lock call does not deadlock against our hold.
	hub := watch.NewHub()
	s := f.Open(true, hub)
	defer s.Close()

	n := *maxBuilds
	if *drive > 0 {
		n = *drive
	}
	opts := watch.Options{
		Manager:   s.M,
		GroupPath: groupPath,
		Col:       s.Col,
		Ledger:    s.Ledger,
		Hub:       hub,
		Poll:      *poll,
		Debounce:  *debounce,
		MaxBuilds: n,
	}
	// -v logs one line per iteration, not per unit.
	opts.Log, s.M.Log = s.M.Log, nil
	w, err := watch.New(opts)
	if err != nil {
		cli.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *drive > 0 {
		go driveEdits(ctx, hub, groupPath, *drive, *driveSeed)
	}

	if err := w.Run(ctx); err != nil {
		cli.Fatal(err)
	}
	switch f.Report {
	case "json":
		cli.WriteJSON(os.Stdout, w.Report())
	case "text":
		printWatchReport(w.Report())
	}
}

// driveEdits is the scripted "developer": it waits for each iteration's
// event before applying the next edit, so every edit maps onto exactly
// one rebuild and the session's latency histogram gets one sample per
// edit. The driver assumes a workload-generated project (irm gen) in
// the group file's directory.
func driveEdits(ctx context.Context, hub *watch.Hub, groupPath string, n int, seed int64) {
	events, cancel := hub.Subscribe()
	defer cancel()

	// Count the units so the driver picks real files.
	g, err := core.LoadGroup(groupPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "irm: drive:", err)
		return
	}
	d := workload.NewEditDriver(filepath.Dir(groupPath), len(g.Files), seed)

	// The initial build's event (seq 0) starts the clock.
	for done := 0; done <= n; {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			if ev.Seq != done {
				continue // stale or duplicate; wait for ours
			}
			done++
			if done > n {
				return // the watcher exits on its own via MaxBuilds
			}
			if _, err := d.Next(); err != nil {
				fmt.Fprintln(os.Stderr, "irm: drive:", err)
				return
			}
		}
	}
}

func printWatchReport(r watch.Report) {
	fmt.Printf("%s: %d iterations (%d rebuilds), %d files polled, %d changed, %d debounced, %d poll errors, %d build errors\n",
		r.Group, r.Iterations, r.Rebuilds, r.FilesPolled, r.ChangedFiles,
		r.Debounced, r.PollErrors, r.BuildErrors)
	fmt.Printf("  edit→rebuild latency: p50 %v  p90 %v  p99 %v  mean %v (%d samples)\n",
		time.Duration(r.Latency.P50Ns).Round(time.Microsecond),
		time.Duration(r.Latency.P90Ns).Round(time.Microsecond),
		time.Duration(r.Latency.P99Ns).Round(time.Microsecond),
		time.Duration(r.Latency.MeanNs).Round(time.Microsecond),
		r.Latency.Count)
}
