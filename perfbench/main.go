// Command perfbench is the repository's end-to-end benchmark. It drives
// real `imprecise serve` processes — a primary on a pre-built data
// directory and a follower replicating it, both on loopback — through
// one workload, checks every answer, and prints the end-to-end metrics.
// With -trace 1 it instead replays the same seeded inputs in process,
// through the program's HTTP handler, its core database and the layers'
// functions in turn, and prints per-layer metrics.
//
// Run it through run.sh, which builds this command and the server:
//
//	bash perfbench/run.sh --workload read_hot --seed 1 --seconds 24 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	// The load generator shares the CPUs with the servers it measures;
	// collecting its own short-lived garbage less often keeps it from
	// taking their time.
	debug.SetGCPercent(800)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose correctness gate failed; the result is
// still printed.
var errIncorrect = errors.New("correctness gate failed")

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 24, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the in-process traced replay and prints per-layer metrics")
	bin := fs.String("bin", "", "the imprecise binary (built from this checkout)")
	root := fs.String("root", ".", "root of the checkout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	known := false
	for _, name := range workloads {
		known = known || name == *workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", "))
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	in := GenerateInputs(*seed)
	env, err := prepareEnv(work, in)
	if err != nil {
		return fmt.Errorf("preparing the data directory: %w", err)
	}
	var rep *Report
	if *trace == 1 {
		rep, err = runTraced(*workload, *seconds, in, env)
	} else {
		if *bin == "" {
			return errors.New("-bin is required")
		}
		rep, err = runWorkload(context.Background(), *workload, *seconds, *bin, in, env)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s, seed %d, %d s measured, trace %d\n", *workload, *seed, *seconds, *trace)
	fmt.Fprintf(w, "environment: nproc %d, GOMAXPROCS %d (servers inherit the default), %s, source digest %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sourceDigest(*root))
	for _, n := range rep.Notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "failed_frac %.6f (%d of %d operations)\n", rep.FailedFrac(), rep.Failed, rep.Attempted)
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "INCORRECT:", p)
	}
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "%-34s %14.6f %s\n", m.Name, m.Value, m.Unit)
	}
	if err := printResult(w, rep); err != nil {
		return err
	}
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the final JSON line.
func printResult(w io.Writer, rep *Report) error {
	metrics := map[string]resultMetric{}
	for _, m := range rep.Metrics {
		metrics[m.Name] = resultMetric{Value: m.Value, Unit: m.Unit}
	}
	attempted := rep.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]resultMetric `json:"metrics"`
	}{rep.Correct, attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// sourceDigest hashes the checkout's Go sources, standing in for a
// commit id where the checkout is not a git repository.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if info.IsDir() && strings.HasPrefix(info.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !info.IsDir() && (strings.HasSuffix(path, ".go") || info.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
