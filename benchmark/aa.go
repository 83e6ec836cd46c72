package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// readRowBounds reads row_bounds.json: one bound per workload and
// end-to-end metric, set from that row's own measured A/A spread.
// BENCHMARK.json has room for one bound per metric, which has to cover the
// noisiest workload that prints it; a quiet row (the paced pkts_per_s,
// gsqd_sse) is held to its own, tighter, bound here.
func readRowBounds(root string) (map[string]map[string]float64, error) {
	b, err := os.ReadFile(filepath.Join(root, "benchmark", "row_bounds.json"))
	if err != nil {
		return nil, err
	}
	var rows map[string]map[string]float64
	if err := json.Unmarshal(b, &rows); err != nil {
		return nil, fmt.Errorf("row_bounds.json: %w", err)
	}
	return rows, nil
}

// runAA is the A/A mode: every workload n times on the same code, one
// process per run and never two at once, each run on the next seed as the
// driver does it. Per end-to-end metric it prints the median, quartiles
// and spread (inter-quartile distance over median) beside the row's bound
// and the metric's bound in BENCHMARK.json, and fails when a spread
// exceeds its row's bound.
func runAA(cfg runConfig, n int) error {
	spec := cfg.spec
	rows, err := readRowBounds(cfg.root)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("A/A: %d runs per workload, seeds %d..%d, %g s each\nhost: %s\n\n", n, cfg.seed, cfg.seed+uint64(n)-1, cfg.seconds, cfg.host)
	fmt.Println("| workload | metric | unit | median | q1 | q3 | spread | row bound | metric bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	ok := true
	for _, wl := range spec.Workloads {
		w := wl.Name
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(exe, "-root", cfg.root, "--workload", w, "--seed", fmt.Sprint(cfg.seed+uint64(i)),
				"--seconds", fmt.Sprint(cfg.seconds), "--trace", "0")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			// The run's log (measured medians, quartiles, host speed) is
			// kept beside the build; a failure to write it is not the run's.
			_ = os.WriteFile(filepath.Join(cfg.buildDir, fmt.Sprintf("aa-%s-%d.log", w, cfg.seed+uint64(i))), stderr.Bytes(), 0o644)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", w, cfg.seed+uint64(i), err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("%s: last line is not a result: %w", w, err)
			}
			if !r.Correct || r.Failed != 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", w, cfg.seed+uint64(i), r.Failed, r.Attempted)
			}
			for name, m := range r.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
			logf("%s seed %d: %s", w, cfg.seed+uint64(i), lines[len(lines)-1])
		}
		for _, m := range spec.EndToEnd {
			q1, med, q3 := quartiles(vals[m.Name])
			sp := spread(vals[m.Name])
			bound, found := rows[w][m.Name]
			if !found || bound > m.Bound {
				bound = m.Bound
			}
			verdict := "PASS"
			switch {
			case m.Name == "setup_s":
				verdict = "n/a" // the driver holds only setup_s's median to its bound
			case sp > bound:
				verdict, ok = "FAIL", false
			}
			fmt.Printf("| %s | %s | %s | %.5g | %.5g | %.5g | %.2f %% | %.0f %% | %.0f %% | %s |\n",
				w, m.Name, m.Unit, med, q1, q3, 100*sp, 100*bound, 100*m.Bound, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("a spread exceeds its bound")
	}
	return nil
}
