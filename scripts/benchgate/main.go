// Command benchgate compares two `go test -bench` output files (base
// and head) and exits non-zero when any gated benchmark's ns/op
// regresses by more than a threshold, or its allocs/op rises by more
// than allocThreshold. It is the stdlib-only gating half of the CI
// bench job: benchstat renders the human-readable comparison,
// benchgate decides pass/fail, so the gate works even where installing
// x/perf is impossible.
//
// Per benchmark name the median ns/op across repetitions is compared:
// one unusually fast or slow repetition on either side moves a median
// little, where a comparison of minimums fails the gate on a single
// fast base run. Allocation counts (present when the run used
// -benchmem) are deterministic, so the minimum allocs/op is compared
// and its gate is tight: BenchmarkPipelineRehydrate's allocs/op pins the load
// path's per-unit allocation, BenchmarkPipelineParse's and
// BenchmarkPipelineCompile's pin the compile path's per-node
// allocation, and BenchmarkNewSession's pins a session to executing
// the shared prelude rather than compiling it (DESIGN.md §4f).
//
// Concurrency: a single-goroutine command-line tool.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// allocThreshold is the allowed allocs/op rise, percent.
const allocThreshold = 2.0

// result is one benchmark's figures across repetitions: the median
// ns/op and the minimum allocs/op.
type result struct {
	ns        float64
	allocs    float64
	hasAllocs bool
}

// median returns the median of xs, which it sorts; xs is not empty.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// field returns the value preceding unit in a benchmark line's fields.
func field(fields []string, unit string) (float64, bool) {
	for i := 2; i < len(fields); i++ {
		if fields[i] == unit {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// parseBench reads `go test -bench` output and returns, per benchmark
// name (with the -N GOMAXPROCS suffix stripped), the median ns/op and
// the minimum allocs/op observed across repetitions.
func parseBench(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	best := make(map[string]result)
	ns := make(map[string][]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		v, ok := field(fields, "ns/op")
		if !ok {
			continue
		}
		ns[name] = append(ns[name], v)
		allocs, hasAllocs := field(fields, "allocs/op")
		old := best[name]
		if hasAllocs && (!old.hasAllocs || allocs < old.allocs) {
			old.allocs, old.hasAllocs = allocs, true
		}
		best[name] = old
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, vs := range ns {
		r := best[name]
		r.ns = median(vs)
		best[name] = r
	}
	return best, nil
}

// pctRise is head's change over base in percent; a rise from zero is
// infinite, so any new allocation in an allocation-free benchmark fails.
func pctRise(base, head float64) float64 {
	if base == 0 {
		if head == 0 {
			return 0
		}
		return 100 * head
	}
	return (head - base) / base * 100
}

func main() {
	threshold := flag.Float64("threshold", 10, "max allowed ns/op regression, percent")
	match := flag.String("match", `Pipeline(Parse|Compile|Hash|Pickle|Rehydrate)|Exec(Cold|Warm)|Apply(Hot|Curried|Arith|Cons|Tail)|NewSession`,
		"regexp selecting which benchmarks gate the build")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [flags] base.txt head.txt")
		os.Exit(2)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	base, err := parseBench(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	head, err := parseBench(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	gated, failed := compare(os.Stdout, base, head, re, *threshold)
	if gated == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmark matched %q in %s\n", *match, flag.Arg(0))
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regressions in %d gated benchmarks (limits: ns/op +%.0f%%, allocs/op +%.0f%%)\n",
			failed, gated, *threshold, allocThreshold)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d gated benchmarks within ns/op +%.0f%%, allocs/op +%.0f%%\n",
		gated, *threshold, allocThreshold)
}

// compare gates head against base for every base benchmark re matches,
// writing one line per figure to w, and returns how many benchmarks it
// gated and how many figures regressed: ns/op by more than threshold
// percent, allocs/op by more than allocThreshold.
func compare(w io.Writer, base, head map[string]result, re *regexp.Regexp, threshold float64) (gated, failed int) {
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !re.MatchString(n) {
			continue
		}
		hd, ok := head[n]
		if !ok {
			fmt.Fprintf(w, "benchgate: %-28s missing from head (skipped)\n", n)
			continue
		}
		gated++
		bs := base[n]
		delta := pctRise(bs.ns, hd.ns)
		verdict := "ok"
		if delta > threshold {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "benchgate: %-28s base %10.0f ns/op  head %10.0f ns/op  %+6.1f%%  %s\n",
			n, bs.ns, hd.ns, delta, verdict)
		if bs.hasAllocs && hd.hasAllocs {
			delta := pctRise(bs.allocs, hd.allocs)
			verdict := "ok"
			if delta > allocThreshold {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(w, "benchgate: %-28s base %10.0f allocs/op  head %10.0f allocs/op  %+6.1f%%  %s\n",
				n, bs.allocs, hd.allocs, delta, verdict)
		}
	}
	return gated, failed
}
