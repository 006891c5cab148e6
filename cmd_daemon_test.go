package repro

// End-to-end tests for the daemon: a real `irm daemon` process on a
// real unix socket, concurrent `irm build` clients dispatching to it,
// smlc compiling through /v1/compile, SIGTERM drain leaving the store
// byte-identical to a daemon-less build, and the fallback paths when
// no daemon answers.

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
)

// startDaemonCmd launches `irm daemon`, waits for the socket
// announcement, and returns the socket path, the command (for
// signalling), and a channel that yields all stderr once it exits.
// Receive from the channel before calling Wait: Wait closes the pipe
// once the process has exited, and the reader would lose the lines it
// has not scanned yet.
func startDaemonCmd(t *testing.T, bin string, args ...string) (string, *exec.Cmd, chan string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"daemon"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sockCh := make(chan string, 1)
	logCh := make(chan string, 1)
	go func() {
		var log strings.Builder
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			log.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "irm: daemon listening on "); ok {
				sockCh <- strings.TrimSpace(rest)
			}
		}
		logCh <- log.String()
	}()
	select {
	case sock := <-sockCh:
		return sock, cmd, logCh
	case <-time.After(10 * time.Second):
		t.Fatal("irm daemon never announced its socket")
		return "", nil, nil
	}
}

func writeDaemonProject(t *testing.T, dir string) string {
	t.Helper()
	writeFile(t, filepath.Join(dir, "lib.sml"), "structure Lib = struct fun triple n = 3 * n end\n")
	writeFile(t, filepath.Join(dir, "main.sml"), `val _ = print (Int.toString (Lib.triple 14) ^ "\n")`+"\n")
	group := filepath.Join(dir, "group.cm")
	writeFile(t, group, "lib.sml\nmain.sml\n")
	return group
}

func TestDaemonCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "irm")
	work := t.TempDir()
	group := writeDaemonProject(t, work)
	store := filepath.Join(work, "store")

	socket, cmd, logCh := startDaemonCmd(t, tools["irm"], "-store", store, "-v")
	if want := filepath.Join(work, ".irm", "daemon.sock"); socket != want {
		t.Fatalf("daemon socket %s, want the store-derived %s", socket, want)
	}

	// Three concurrent clients; `irm build -store` derives the same
	// socket and dispatches. Every one must see the program output and
	// the summary line, whoever led the build.
	outs := make([]string, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = runTool(t, tools["irm"], "", "build", group, "-store", store)
		}(i)
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("client %d: %v\n%s", i, errs[i], outs[i])
		}
		if !strings.Contains(outs[i], "42") {
			t.Fatalf("client %d: program output missing:\n%s", i, outs[i])
		}
		if !strings.Contains(outs[i], "2 units") {
			t.Fatalf("client %d: summary missing:\n%s", i, outs[i])
		}
	}

	// Status over the unix socket: all three requests were served by
	// the daemon, and every request either led a build or coalesced.
	client := daemon.NewClient(socket)
	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 3 {
		t.Fatalf("status.requests = %d, want 3 (clients did not dispatch?)", st.Requests)
	}
	if st.Builds+st.Coalesced != 3 || st.Builds < 1 {
		t.Fatalf("status = %+v: builds+coalesced != requests", st)
	}

	// -explain through the daemon: decision records arrive on stderr
	// as JSONL (a warm build, so every unit reports loaded).
	out, err := runTool(t, tools["irm"], "", "build", group, "-store", store, "-explain")
	if err != nil {
		t.Fatalf("explain build: %v\n%s", err, out)
	}
	if strings.Count(out, `"action":"loaded"`) != 2 {
		t.Fatalf("expected 2 loaded explain records:\n%s", out)
	}

	// SIGTERM: graceful drain, socket removed, clean exit.
	cmd.Process.Signal(syscall.SIGTERM)
	log := <-logCh
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
	if !strings.Contains(log, "irm: daemon draining") || !strings.Contains(log, "irm: daemon drained") {
		t.Fatalf("daemon log missing drain announcements:\n%s", log)
	}
	if _, err := os.Stat(socket); !os.IsNotExist(err) {
		t.Fatalf("socket %s not removed on drain (err=%v)", socket, err)
	}

	// The drained store is byte-identical to a daemon-less build of
	// the same group into a fresh store.
	work2 := t.TempDir()
	store2 := filepath.Join(work2, "store2")
	if out, err := runTool(t, tools["irm"], "", "build", group,
		"-store", store2, "-daemon", "off", "-j", "1"); err != nil {
		t.Fatalf("cold build: %v\n%s", err, out)
	}
	compareStoreDirs(t, store, store2)
}

// compareStoreDirs asserts two stores hold the same entries with the
// same bytes, ignoring the advisory lockfile.
func compareStoreDirs(t *testing.T, a, b string) {
	t.Helper()
	read := func(dir string) map[string][]byte {
		out := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || e.Name() == ".irm.lock" {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = data
		}
		return out
	}
	got, want := read(a), read(b)
	if len(got) != len(want) {
		t.Fatalf("store %s has %d entries, %s has %d", a, len(got), b, len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Fatalf("store entry %s differs between daemon and daemon-less build", name)
		}
	}
}

// TestDaemonFallback: with no daemon, -daemon auto builds in-process
// and -daemon require refuses.
func TestDaemonFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "irm")
	work := t.TempDir()
	group := writeDaemonProject(t, work)
	store := filepath.Join(work, "store")

	out, err := runTool(t, tools["irm"], "", "build", group, "-store", store)
	if err != nil {
		t.Fatalf("fallback build: %v\n%s", err, out)
	}
	if !strings.Contains(out, "42") {
		t.Fatalf("fallback build output:\n%s", out)
	}

	out, err = runTool(t, tools["irm"], "", "build", group, "-store", store, "-daemon", "require")
	if err == nil {
		t.Fatalf("-daemon require succeeded with no daemon:\n%s", out)
	}
	if !strings.Contains(out, "no live daemon") {
		t.Fatalf("-daemon require error message:\n%s", out)
	}
}

// TestDaemonClientDrainExits: POST /v1/drain must finish the shutdown
// the same way SIGTERM does — the daemon process exits 0, the socket
// file is removed, and the store lock is released, so the next build
// can take the store (PROTOCOL.md §8).
func TestDaemonClientDrainExits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "irm")
	work := t.TempDir()
	group := writeDaemonProject(t, work)
	store := filepath.Join(work, "store")

	socket, cmd, logCh := startDaemonCmd(t, tools["irm"], "-store", store)
	if err := daemon.NewClient(socket).Drain(); err != nil {
		t.Fatalf("drain request: %v", err)
	}
	log := <-logCh
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after client drain: %v", err)
	}
	if !strings.Contains(log, "irm: daemon drained") {
		t.Fatalf("daemon log missing drained announcement:\n%s", log)
	}
	if _, err := os.Stat(socket); !os.IsNotExist(err) {
		t.Fatalf("socket %s not removed after client drain (err=%v)", socket, err)
	}
	// The store lock is free again: an in-process build must succeed
	// rather than timing out on a still-held lock.
	out, err := runTool(t, tools["irm"], "", "build", group, "-store", store)
	if err != nil {
		t.Fatalf("post-drain build: %v\n%s", err, out)
	}
	if !strings.Contains(out, "42") {
		t.Fatalf("post-drain build output:\n%s", out)
	}
}

// TestDaemonBackpressureFallback: a daemon that answers the probe but
// rejects work with a backpressure code (here: 503 draining) must not
// fail an auto-mode build — irm build and smlc run the work in-process
// (PROTOCOL.md §9); only -daemon require treats backpressure as fatal.
func TestDaemonBackpressureFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "irm", "smlc")
	work := t.TempDir()
	group := writeDaemonProject(t, work)
	store := filepath.Join(work, "store")

	// An in-test daemon, fully drained: GET /v1/status answers 200 (so
	// the probe succeeds) while every build and compile gets 503
	// draining. Its store stays untouched, so no lock is needed.
	dstore, err := core.NewDirStore(filepath.Join(work, "daemon-store"))
	if err != nil {
		t.Fatal(err)
	}
	srv := daemon.New(daemon.Options{Store: dstore, StoreDir: dstore.Dir})
	srv.Start()
	srv.Drain()
	socket := filepath.Join(work, "drained.sock")
	ln, err := net.Listen("unix", socket)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go http.Serve(ln, srv.Handler())

	out, err := runTool(t, tools["irm"], "", "build", group, "-store", store, "-daemon", socket)
	if err != nil {
		t.Fatalf("auto-mode build did not fall back on 503 draining: %v\n%s", err, out)
	}
	if !strings.Contains(out, "42") || !strings.Contains(out, "2 units") {
		t.Fatalf("fallback build output:\n%s", out)
	}

	cmd := exec.Command(tools["irm"], "build", group, "-store", store, "-daemon", "require")
	cmd.Env = append(os.Environ(), daemon.SocketEnv+"="+socket)
	reqOut, reqErr := cmd.CombinedOutput()
	if reqErr == nil {
		t.Fatalf("-daemon require succeeded against a draining daemon:\n%s", reqOut)
	}
	if !strings.Contains(string(reqOut), "draining") {
		t.Fatalf("-daemon require error message:\n%s", reqOut)
	}

	// smlc takes the same fallback: the compile runs in-process and
	// still writes its bin files.
	outDir := filepath.Join(work, "bins")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	smlc := exec.Command(tools["smlc"], "-d", outDir, filepath.Join(work, "lib.sml"))
	smlc.Env = append(os.Environ(), daemon.SocketEnv+"="+socket)
	smlcOut, smlcErr := smlc.CombinedOutput()
	if smlcErr != nil {
		t.Fatalf("smlc did not fall back on 503 draining: %v\n%s", smlcErr, smlcOut)
	}
	if _, err := os.Stat(filepath.Join(outDir, "lib.bin")); err != nil {
		t.Fatalf("smlc fallback wrote no bin file: %v", err)
	}
}

// TestSmlcViaDaemon: smlc dispatching over $IRM_DAEMON_SOCKET writes
// bin files byte-identical to an in-process run, with the same stdout.
func TestSmlcViaDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "irm", "smlc")
	work := t.TempDir()
	writeFile(t, filepath.Join(work, "lib.sml"), "structure Lib = struct val n = 7 end\n")
	writeFile(t, filepath.Join(work, "use.sml"), "structure Use = struct val m = Lib.n * 6 end\n")
	store := filepath.Join(work, "store")

	socket, _, _ := startDaemonCmd(t, tools["irm"], "-store", store)

	viaDaemon := filepath.Join(work, "out-daemon")
	local := filepath.Join(work, "out-local")
	for _, dir := range []string{viaDaemon, local} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	cmd := exec.Command(tools["smlc"], "-d", viaDaemon,
		filepath.Join(work, "lib.sml"), filepath.Join(work, "use.sml"))
	cmd.Env = append(os.Environ(), daemon.SocketEnv+"="+socket)
	daemonOut, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("smlc via daemon: %v\n%s", err, daemonOut)
	}
	localOut, err := runTool(t, tools["smlc"], "", "-d", local, "-daemon", "off",
		filepath.Join(work, "lib.sml"), filepath.Join(work, "use.sml"))
	if err != nil {
		t.Fatalf("smlc local: %v\n%s", err, localOut)
	}

	// Same per-unit report lines (modulo the output directory).
	norm := func(s, dir string) string { return strings.ReplaceAll(s, dir+string(os.PathSeparator), "") }
	if norm(string(daemonOut), viaDaemon) != norm(localOut, local) {
		t.Fatalf("smlc output differs:\nvia daemon: %slocal: %s", daemonOut, localOut)
	}
	// Byte-identical bin files.
	for _, name := range []string{"lib.bin", "use.bin"} {
		a, err := os.ReadFile(filepath.Join(viaDaemon, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(local, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between daemon and local compile", name)
		}
	}

	// The daemon's own store gained nothing: /v1/compile persists no
	// entries.
	entries, err := os.ReadDir(store)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".bin") {
			t.Fatalf("compile persisted %s into the daemon store", e.Name())
		}
	}
}
