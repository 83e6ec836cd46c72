// Command benchmark is the repository's performance ledger: four
// workloads over the path users pay for (session pump, tap, high-level
// node, quota gate, subscription, SSE byte), each checked against a
// reference output, with a layer ladder behind them. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	cfg := runConfig{scale: 1}
	var trace, aa int
	flag.StringVar(&cfg.workload, "workload", "", "sample_walk | two_level | tenant_fanout | gsqd_sse")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and the layer ladder and prints the per-layer metrics")
	flag.IntVar(&aa, "aa", 0, "A/A mode: run every workload this many times and hold the spreads against row_bounds.json and BENCHMARK.json")
	flag.BoolVar(&cfg.corrupt, "corrupt-reference", false, "test only: damage the reference output; the run must fail")
	flag.StringVar(&cfg.root, "root", "..", "repository root")
	flag.Parse()
	if err := mainErr(cfg, trace == 1, aa); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(cfg runConfig, trace bool, aa int) error {
	if runtime.NumCPU() < procs {
		return fmt.Errorf("needs at least %d CPUs, found %d", procs, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(procs)
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "gsqd", "main.go")); err != nil {
		return fmt.Errorf("-root %s does not hold the repository: %w", root, err)
	}
	if cfg.spec, err = readSpec(root); err != nil {
		return err
	}
	cfg.root, cfg.trace = root, trace
	cfg.buildDir = filepath.Join(root, ".bench_build")
	cfg.outDir = filepath.Join(root, "benchmark", "out")
	cfg.host = host(root)
	logf("host: %s", cfg.host)
	if aa > 0 {
		return runAA(cfg, aa)
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed the output checks", cfg.workload, res.Failed, res.Attempted)
	}
	return nil
}
