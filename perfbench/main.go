// Command perfbench is tpjoin's end-to-end benchmark. It starts the
// tpserverd built from the same tree as a child process on loopback, loads
// generated relations through the server's own \loadb path, drives it over
// internal/client with closed-loop sessions, checks every response against
// an in-process reference, and prints the metrics BENCHMARK.json names as
// the last line of standard output:
//
//	perfbench -server <tpserverd> -workdir <dir> -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	perfbench -server <tpserverd> -workdir <dir> -selftest
//
// perfbench/run.sh builds both binaries and supplies -server and -workdir.
// With -trace 0 the run reports the end-to-end metrics; with -trace 1 it
// reports the per-layer metrics of a separate traced run (see trace.go).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final standard-output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		serverBin = flag.String("server", "", "path of the tpserverd binary under test")
		workdir   = flag.String("workdir", ".bench_build/run", "directory for generated data and server logs")
		wlName    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "generator seed: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 20, "measured seconds per run")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = timed run")
		selftest  = flag.Bool("selftest", false, "run every workload at a tiny size and check the harness itself")
	)
	flag.Parse()
	if *serverBin == "" {
		fatalf("-server is required")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatalf("%v", err)
	}
	if *selftest {
		if err := selfTest(*serverBin, *workdir); err != nil {
			fatalf("self-test failed: %v", err)
		}
		fmt.Println("self-test ok")
		return
	}
	w, ok := lookupWorkload(*wlName)
	if !ok {
		fatalf("unknown -workload %q (want one of %s)", *wlName, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("want -seconds >= 1 and -trace 0 or 1")
	}
	cfg := runConfig{w: w, n: w.n, seed: *seed, seconds: *seconds, server: *serverBin, workdir: *workdir}
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = tracedRun(cfg)
	} else {
		res, err = timedRun(cfg)
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	printResult(res)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// printResult prints every metric by name with its unit, then the result
// object as the last line.
func printResult(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(b))
}

// printRecord prints one labelled JSON line of run metadata (host, build,
// AUTO picks, server counters) ahead of the result.
func printRecord(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encode %s: %v", label, err)
	}
	fmt.Printf("%s %s\n", label, b)
}

// hostRecord is the host and build metadata recorded with every run.
func hostRecord(cfg runConfig) map[string]any {
	return map[string]any{
		"workload":   cfg.w.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"size":       cfg.n,
		"dataset":    cfg.w.dataset,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
	}
}

// commit names the tree under test: the checkout's git HEAD when it is a
// git repository, else "unknown" (the source digest still identifies it).
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

// sourceDigest is a SHA-256 over the paths and contents of the checkout's
// Go sources, module files and embedded JSON (the build inputs of the
// server under test), so runs of the same tree are recognizable without
// git.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".json":
		default:
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
