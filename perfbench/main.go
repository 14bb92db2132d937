// Command perfbench is bistpath's benchmark. One run drives one workload
// through the library's public surfaces (Synthesizer, Pool, Session,
// Result) or the bistpathd handler for a fixed wall-clock window, checks
// every output, and prints one JSON object as the last line of standard
// output:
//
//	bash perfbench/run.sh --workload paper-flow --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics. With
// --trace 1 the same workload runs with spans recorded and the object
// carries the per-layer metrics. README.md describes the workloads, the
// metrics and the seeds. The exit status is non-zero when an output check
// fails or the workload cannot run.
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads maps each --workload name to its set-up.
var workloads = map[string]func(ctx context.Context, seed int64) (runner, error){
	"paper-flow":    setupPaperFlow,
	"large-designs": setupLargeDesigns,
	"service-mix":   setupServiceMix,
}

func main() {
	start := time.Now()
	os.Exit(run(os.Args[1:], start, os.Stdout, os.Stderr))
}

func run(args []string, start time.Time, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "paper-flow, large-designs or service-mix")
	seed := flags.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flags.Int("seconds", 30, "length of the measured window in seconds")
	trace := flags.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flags.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: perfbench --workload paper-flow|large-designs|service-mix --seed N --seconds S --trace 0|1")
		return 2
	}
	fmt.Fprintln(stdout, "# env", environment())
	rep, err := execute(context.Background(), *name, setup, *seed, time.Duration(*seconds)*time.Second, *trace == 1, start)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range rep.rows {
		fmt.Fprintln(stdout, line)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	line, err := rep.resultLine()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.correct() {
		return 1
	}
	return 0
}

// environment stamps a result with what it was measured on: core count,
// GOMAXPROCS, Go version, CPU model, the commit when the checkout is a
// git work tree, and a digest of the Go sources, which names the code
// measured even in a checkout without git metadata.
func environment() string {
	return fmt.Sprintf("cores=%d gomaxprocs=%d go=%s platform=%s/%s cpu=%q commit=%s source=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cpuModel(), gitCommit(), sourceDigest())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory of the working
// directory without running git; "none" outside a work tree.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go and go.mod file under the working
// directory, skipping hidden directories such as .git and .bench_build.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
