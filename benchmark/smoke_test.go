package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := runConfig{
		spec:     spec,
		workload: workload, seed: 5, seconds: 0.1, trace: trace, scale: 1.0 / 200,
		root: root, buildDir: filepath.Join(dir, "build"), outDir: filepath.Join(dir, "out"),
	}
	if workload == "gsqd_sse" {
		// Long enough for whole windows to cross the wire; a traced run
		// measures a quarter of its length at a time.
		cfg.seconds = 1.2
		if trace {
			cfg.seconds = 4
		}
	}
	cfg.host = host(root)
	return cfg
}

func needTwoCPUs(t *testing.T) {
	t.Helper()
	if runtime.NumCPU() < procs {
		t.Skipf("needs %d CPUs", procs)
	}
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestSmoke runs every workload at 1/200 size, untraced and traced, and
// holds what it prints against BENCHMARK.json: every declared metric
// exactly once, finite, in its declared unit, and nothing undeclared.
func TestSmoke(t *testing.T) {
	needTwoCPUs(t)
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		w := wl.Name
		if raceBuild && w == "tenant_fanout" {
			t.Log("tenant_fanout skipped: the race detector cannot keep its pace")
			continue
		}
		for _, traced := range []bool{false, true} {
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			cfg := smokeConfig(t, w, traced)
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w, traced, err)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w+".json")); err != nil {
					t.Errorf("%s: the traced run left no span file: %v", w, err)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): %s is declared but was not emitted", w, traced, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s (trace %v): %s = %v", w, traced, d.Name, m.Value)
				case m.Unit != d.Unit:
					t.Errorf("%s (trace %v): %s in %q, declared %q", w, traced, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v must never be 0", w, d.Name, m.Value)
				}
			}
			if len(res.Metrics) != len(declared) {
				for name := range res.Metrics {
					found := false
					for _, d := range declared {
						found = found || d.Name == name
					}
					if !found {
						t.Errorf("%s (trace %v): %s was emitted but is not declared", w, traced, name)
					}
				}
			}
		}
	}
}

// A damaged reference must fail the run: the checks are live.
func TestCorruptReferenceFails(t *testing.T) {
	needTwoCPUs(t)
	for _, w := range []string{"sample_walk", "tenant_fanout"} {
		if raceBuild && w == "tenant_fanout" {
			continue
		}
		cfg := smokeConfig(t, w, false)
		cfg.corrupt = true
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted reference passed (correct %v, failed %d)", w, res.Correct, res.Failed)
		}
	}
}
