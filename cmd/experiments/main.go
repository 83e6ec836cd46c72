// Command experiments regenerates the paper's evaluation figures (§7) on
// the synthetic feeds and prints the series the paper plots.
//
// Usage:
//
//	experiments -fig 2       # accuracy of summation (Figure 2)
//	experiments -fig 3       # samples per period (Figure 3)
//	experiments -fig 4       # cleaning phases per period (Figure 4)
//	experiments -fig 5       # CPU usage for sampling (Figure 5)
//	experiments -fig 6       # effect of low-level query type (Figure 6)
//	experiments -fig theta   # cleaning-trigger sweep (§7.2 text)
//	experiments -fig sizes   # N in {100, 1000, 10000} (§7.1 text)
//	experiments -fig ddos    # sampled-flows under DDoS (§8 example)
//	experiments -fig overhead|relax|hhpush|cascade   # ablations
//	experiments -fig shard   # sharded partial-agg throughput sweep
//	experiments -fig coverage   # empirical CI-coverage audit of ESTIMATE ... WITH ERROR
//	experiments -fig all
//
// -quick shrinks every run for smoke testing; -seed controls all
// randomness, so output is fully reproducible. -o DIR mirrors stdout to
// DIR/experiments_output.txt so runs leave a durable record next to their
// other artifacts instead of polluting the working directory.
//
// -metrics serves live Prometheus telemetry plus the /debug introspection
// surface (/debug/plan, /debug/state, /debug/pprof) for every operator and
// engine the figures build (they pick up the ambient collector), and
// -events streams their window-flush/cleaning events as JSONL. -trace
// installs an ambient provenance tracer: every engine the figures build
// traces one in -trace-every source packets and the merged spans land in
// one Chrome trace-event JSON file. See docs/OBSERVABILITY.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"streamop/internal/experiments"
	"streamop/internal/telemetry"
	"streamop/internal/tracing"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 2,3,4,5,6,theta,sizes,ddos,overhead,profile,relax,hhpush,cascade,shard,coverage,all")
	seed := flag.Uint64("seed", 42, "random seed for feeds and algorithms")
	quick := flag.Bool("quick", false, "shrink runs for a fast smoke test")
	outDir := flag.String("o", "", "mirror stdout to <dir>/experiments_output.txt, creating the directory")
	profileOut := flag.String("profile", "", "with -fig profile: also write the cost-attribution JSON to this file")
	coverageOut := flag.String("coverage-out", "", "with -fig coverage: also write the CI-coverage audit JSON (the BENCH_accuracy.json shape) to this file")
	metricsAddr := flag.String("metrics", "", "serve Prometheus telemetry and /debug introspection on this address while figures run")
	eventsFile := flag.String("events", "", "stream JSONL telemetry events to this file")
	traceOut := flag.String("trace", "", "write provenance traces from every engine as Chrome trace-event JSON to this file")
	traceEvery := flag.Int("trace-every", 1000, "with -trace: trace one in this many source packets per engine")
	flag.Parse()

	cleanup, err := setupTelemetry(*metricsAddr, *eventsFile, *traceOut, *traceEvery, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	closeTee := func() error { return nil }
	if *outDir != "" {
		closeTee, err = teeStdout(filepath.Join(*outDir, "experiments_output.txt"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	runErr := run(*fig, *seed, *quick, *profileOut, *coverageOut)
	if err := closeTee(); err != nil && runErr == nil {
		runErr = err
	}
	if err := cleanup(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", runErr)
		os.Exit(1)
	}
}

// setupTelemetry installs the ambient collector and tracer the figures'
// operators and engines pick up, and returns a cleanup that flushes the
// event log and writes the Chrome trace file.
func setupTelemetry(metricsAddr, eventsFile, traceOut string, traceEvery int, seed uint64) (cleanup func() error, err error) {
	cleanup = func() error { return nil }
	if metricsAddr == "" && eventsFile == "" && traceOut == "" {
		return cleanup, nil
	}
	var col *telemetry.Collector
	closeEvents := func() error { return nil }
	if eventsFile != "" {
		f, err := os.Create(eventsFile)
		if err != nil {
			return nil, err
		}
		out := bufio.NewWriter(f)
		col = telemetry.NewWithEvents(out)
		closeEvents = func() error {
			if err := col.Close(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	} else if metricsAddr != "" {
		col = telemetry.New()
	}
	if metricsAddr != "" {
		_, addr, err := col.Serve(metricsAddr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "experiments: telemetry at http://%s/metrics, introspection at /debug/{plan,state,pprof}\n", addr)
	}
	writeTrace := func() error { return nil }
	if traceOut != "" {
		tr := tracing.New(tracing.Config{Every: traceEvery, Seed: seed})
		tr.SetCollector(col)
		tracing.SetDefault(tr)
		writeTrace = func() error {
			f, err := os.Create(traceOut)
			if err != nil {
				return err
			}
			w := bufio.NewWriter(f)
			if err := tr.WriteChromeTrace(w); err != nil {
				f.Close()
				return fmt.Errorf("writing trace: %w", err)
			}
			if err := w.Flush(); err != nil {
				f.Close()
				return fmt.Errorf("writing trace: %w", err)
			}
			sum := tr.Summary()
			fmt.Fprintf(os.Stderr, "experiments: %d traces (%d spans) written to %s\n", sum.Started, sum.Spans, traceOut)
			return f.Close()
		}
	}
	if col != nil {
		telemetry.SetDefault(col)
	}
	cleanup = func() error {
		// The event log mirrors trace spans; flush it after the trace file
		// is written so both exports are complete.
		traceErr := writeTrace()
		if err := closeEvents(); err != nil {
			return err
		}
		return traceErr
	}
	return cleanup, nil
}

// teeStdout mirrors everything written to stdout into path (creating its
// directory first), so a -o run leaves a durable experiments_output.txt
// next to its other artifacts. The returned func restores stdout, drains
// the copier and closes the file.
func teeStdout(path string) (func() error, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		f.Close()
		return nil, err
	}
	orig := os.Stdout
	os.Stdout = w
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.MultiWriter(orig, f), r)
		done <- err
	}()
	return func() error {
		os.Stdout = orig
		w.Close()
		copyErr := <-done
		r.Close()
		if err := f.Close(); err != nil {
			return err
		}
		return copyErr
	}, nil
}

func run(fig string, seed uint64, quick bool, profileOut, coverageOut string) error {
	switch fig {
	case "2", "3", "4":
		return accuracyFigs(fig, seed, quick, 0)
	case "5":
		return fig5(seed, quick)
	case "6":
		return fig6(seed, quick)
	case "theta":
		return thetaFig(seed, quick)
	case "sizes":
		for _, n := range []int{100, 1000, 10000} {
			if err := accuracyFigs("summary", seed, quick, n); err != nil {
				return err
			}
		}
		return nil
	case "ddos":
		return ddosFig(seed, quick)
	case "overhead":
		return overheadFig(seed, quick)
	case "profile":
		return profileFig(seed, quick, profileOut)
	case "hhpush":
		return hhpushFig(seed, quick)
	case "cascade":
		return cascadeFig(seed, quick)
	case "relax":
		return relaxFig(seed, quick)
	case "shard":
		return shardFig(seed, quick)
	case "coverage":
		return coverageFig(seed, quick, coverageOut)
	case "all":
		for _, f := range []string{"2", "3", "4", "5", "6", "theta", "sizes", "ddos", "overhead", "profile", "relax", "hhpush", "cascade", "shard", "coverage"} {
			fmt.Printf("\n================ -fig %s ================\n", f)
			if err := run(f, seed, quick, profileOut, coverageOut); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown figure %q", fig)
}

func accuracyCfg(seed uint64, quick bool, n int) experiments.AccuracyConfig {
	cfg := experiments.DefaultAccuracy(seed)
	if n > 0 {
		cfg.N = n
	}
	if quick {
		cfg.Windows = 10
	}
	return cfg
}

func accuracyFigs(fig string, seed uint64, quick bool, n int) error {
	cfg := accuracyCfg(seed, quick, n)
	pts, err := experiments.Accuracy(cfg)
	if err != nil {
		return err
	}
	switch fig {
	case "2":
		fmt.Printf("Figure 2 — Accuracy of summation (%d samples per %ds period)\n", cfg.N, cfg.WindowSec)
		fmt.Printf("%-7s %15s %18s %20s\n", "window", "actual", "estimated(relaxed)", "estimated(nonrelaxed)")
		for _, p := range pts {
			fmt.Printf("%-7d %15.0f %18.0f %20.0f\n", p.Window, p.Actual, p.EstRelaxed, p.EstNonrelaxed)
		}
	case "3":
		fmt.Printf("Figure 3 — Samples per period (target N=%d)\n", cfg.N)
		fmt.Printf("%-7s %10s %12s\n", "window", "relaxed", "nonrelaxed")
		for _, p := range pts {
			fmt.Printf("%-7d %10d %12d\n", p.Window, p.SamplesRelaxed, p.SamplesNonrelaxed)
		}
	case "4":
		fmt.Printf("Figure 4 — Cleaning phases per period (N=%d)\n", cfg.N)
		fmt.Printf("%-7s %10s %12s\n", "window", "relaxed", "nonrelaxed")
		for _, p := range pts {
			fmt.Printf("%-7d %10d %12d\n", p.Window, p.CleaningsRelaxed, p.CleaningsNonrelaxed)
		}
	}
	s := experiments.Summarize(pts, cfg.N)
	fmt.Printf("\nsummary N=%d: rel.err relaxed=%.3f nonrelaxed=%.3f | mean samples relaxed=%.0f nonrelaxed=%.0f | cleanings/window relaxed=%.1f nonrelaxed=%.1f | undersampled windows (nonrelaxed)=%d\n",
		cfg.N, s.MeanRelErrRelaxed, s.MeanRelErrNonrelaxed,
		s.MeanSamplesRelaxed, s.MeanSamplesNonrelaxed,
		s.SteadyCleaningsRelaxed, s.SteadyCleaningsNonrelaxed, s.UnderSampledWindowsNon)
	return nil
}

func cpuCfg(seed uint64, quick bool) experiments.CPUConfig {
	cfg := experiments.DefaultCPU(seed)
	if quick {
		// One sample size. Period, windows and rate stay: the pushdown's
		// threshold, so its share of the packets, scales with rate × period.
		cfg.SampleSizes = []int{1000}
	}
	return cfg
}

func fig5(seed uint64, quick bool) error {
	cfg := cpuCfg(seed, quick)
	pts, err := experiments.CPUUsage(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 5 — Subset-sum sampling CPU usage (%.0fk pkts/sec, %ds windows)\n", cfg.Rate/1000, cfg.WindowSec)
	fmt.Printf("%-18s %12s %14s %10s\n", "samples/period", "SS relaxed", "SS nonrelaxed", "basic SS")
	for _, p := range pts {
		fmt.Printf("%-18d %11.4f%% %13.4f%% %9.4f%%\n",
			p.Samples, 100*p.Relaxed, 100*p.Nonrelaxed, 100*p.BasicSS)
	}
	return nil
}

func fig6(seed uint64, quick bool) error {
	cfg := cpuCfg(seed, quick)
	pts, err := experiments.LowLevelEffect(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 6 — Effect of low-level query type on the sampling node (%.0fk pkts/sec, %ds windows)\n", cfg.Rate/1000, cfg.WindowSec)
	fmt.Printf("%-18s %20s %20s %14s %14s\n", "samples/period",
		"high (selection sub)", "high (basic-SS sub)", "low selection", "low basic-SS")
	for _, p := range pts {
		fmt.Printf("%-18d %19.4f%% %19.4f%% %13.4f%% %13.4f%%\n",
			p.Samples, 100*p.HighSelectionSub, 100*p.HighBasicSSSub,
			100*p.LowSelection, 100*p.LowBasicSS)
	}
	fmt.Printf("\nrows on the hop (exact counts)\n%-18s %12s %12s %20s %20s\n", "samples/period",
		"packets", "forwarded", "high in (selection)", "high in (basic-SS)")
	for _, p := range pts {
		fmt.Printf("%-18d %12d %12d %20d %20d\n",
			p.Samples, p.Packets, p.Forwarded, p.HighInSelection, p.HighInBasicSS)
	}
	return nil
}

func thetaFig(seed uint64, quick bool) error {
	cfg := cpuCfg(seed, quick)
	pts, err := experiments.ThetaSweep(cfg, []float64{1.5, 2, 3, 4, 6}, 1000)
	if err != nil {
		return err
	}
	fmt.Println("Theta sweep (§7.2) — cleaning trigger vs CPU, N=1000")
	fmt.Printf("%-8s %10s %12s\n", "theta", "CPU", "cleanings")
	for _, p := range pts {
		fmt.Printf("%-8.1f %9.4f%% %12d\n", p.Theta, 100*p.CPU, p.Cleanings)
	}
	return nil
}

func ddosFig(seed uint64, quick bool) error {
	cfg := experiments.DefaultDDoS(seed)
	if quick {
		cfg.DurationSec = 9
	}
	res, err := experiments.DDoS(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Sampled flows under DDoS (§8 example)")
	fmt.Printf("packets:                   %d\n", res.Packets)
	fmt.Printf("naive pipeline failed:     %v (flow budget %d, peak %d)\n", res.NaiveFailed, cfg.NaiveBudget, res.NaivePeakFlows)
	fmt.Printf("integrated table peak:     %d (bound %d)\n", res.IntegratedPeak, res.Bound)
	fmt.Printf("sampled flows out:         %d (target %d)\n", res.SampledFlows, cfg.TargetSize)
	fmt.Printf("volume estimate rel. err:  %.3f\n", res.VolumeRelErr)
	return nil
}

func overheadFig(seed uint64, quick bool) error {
	dur := 3.0
	if quick {
		dur = 1
	}
	res, err := experiments.Overhead(seed, dur, 1000)
	if err != nil {
		return err
	}
	fmt.Println("Ablation — operator genericity cost (dynamic subset-sum, N=1000)")
	fmt.Printf("packets:               %d\n", res.Packets)
	fmt.Printf("operator ns/packet:    %.0f\n", res.OperatorNSPerPacket)
	fmt.Printf("hand-coded ns/packet:  %.0f\n", res.DirectNSPerPacket)
	fmt.Printf("overhead factor:       %.1fx\n", res.Factor)
	fmt.Printf("estimate agreement:    %.3f rel. difference\n", res.EstimateDelta)
	return nil
}

// profileFig reruns the overhead ablation with the per-node profiler
// attached and prints the cost-attribution table in markdown; with
// -profile FILE it also writes the machine-readable JSON (CI's
// profile-smoke job uploads it).
func profileFig(seed uint64, quick bool, out string) error {
	dur := 3.0
	if quick {
		dur = 1
	}
	res, err := experiments.ProfileAblation(seed, dur, 1000)
	if err != nil {
		return err
	}
	fmt.Println("Ablation — cost attribution of the operator's genericity overhead (dynamic subset-sum, N=1000)")
	fmt.Println()
	fmt.Printf("| metric | value |\n|---|---|\n")
	fmt.Printf("| packets | %d |\n", res.Packets)
	fmt.Printf("| operator ns/packet (profiled) | %.0f |\n", res.OperatorNSPerPacket)
	fmt.Printf("| hand-coded ns/packet | %.0f |\n", res.DirectNSPerPacket)
	fmt.Printf("| overhead factor | %.1fx |\n", res.Factor)
	fmt.Printf("| wall time | %.1f ms |\n", float64(res.WallNS)/1e6)
	fmt.Printf("| attributed by profiler | %.1f ms (%.0f%% of wall) |\n",
		res.AttributedNS/1e6, 100*res.Coverage)
	fmt.Println()
	fmt.Printf("| stage | time %% | ns/packet | self time | rows in → out |\n|---|---|---|---|---|\n")
	for _, s := range res.Stages {
		fmt.Printf("| %s | %.1f%% | %.0f | %.2f ms | %d → %d |\n",
			s.Stage, s.TimePct, s.NSPerPkt, s.SelfNS/1e6, s.RowsIn, s.RowsOut)
	}
	if out == "" {
		return nil
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "experiments: cost attribution written to %s\n", out)
	return nil
}

func shardFig(seed uint64, quick bool) error {
	dur := 5.0
	if quick {
		dur = 1
	}
	res, err := experiments.Shard(seed, dur, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	fmt.Println("Sharded partial aggregation — throughput vs shard count (unpaced RunParallel)")
	fmt.Printf("packets: %d, final groups: %d, GOMAXPROCS: %d, sequential Run: %.1f ms\n",
		res.Packets, res.Groups, res.GOMAXPROCS, res.RunWallMS)
	fmt.Printf("%-8s %10s %14s %10s %10s %8s\n", "shards", "wall ms", "pkts/sec", "speedup", "evictions", "exact")
	for _, p := range res.Points {
		fmt.Printf("%-8d %10.1f %14.0f %9.2fx %10d %8v\n",
			p.Shards, p.WallMS, p.PktsPerSec, p.Speedup, p.Evictions, p.Exact)
	}
	fmt.Println("exact = final aggregates, row count and eviction total match the single-threaded Run")
	return nil
}

func hhpushFig(seed uint64, quick bool) error {
	dur := 180.0
	if quick {
		dur = 65
	}
	res, err := experiments.HHPush(seed, dur)
	if err != nil {
		return err
	}
	fmt.Println("Ablation — heavy hitters via low-level partial aggregation (§8 suggestion)")
	fmt.Printf("packets:                        %d\n", res.Packets)
	fmt.Printf("forwarded (selection low):      %d\n", res.SelectionForwarded)
	fmt.Printf("forwarded (256-slot partial):   %d (%d collision evictions)\n", res.PartialForwarded, res.Evictions)
	fmt.Printf("heavy-hitter node CPU:          %.2f%% (selection-fed) vs %.2f%% (partial-fed)\n",
		100*res.HighCPUSelection, 100*res.HighCPUPartial)
	fmt.Printf("heavy source found:             selection=%v partial=%v\n",
		res.HeavyFoundSelection, res.HeavyFoundPartial)
	return nil
}

func cascadeFig(seed uint64, quick bool) error {
	dur := 20.0
	if quick {
		dur = 8
	}
	res, err := experiments.Cascade(seed, dur, 2, 1000, 50)
	if err != nil {
		return err
	}
	fmt.Println("Ablation — cascaded sampling (conclusion's teaser): reservoir(50) over subset-sum(1000)")
	fmt.Printf("windows:                 %d\n", res.Windows)
	fmt.Printf("cascade mean rel.err:    %.3f (scaled estimator)\n", res.MeanRelErrCascade)
	fmt.Printf("direct SS(50) rel.err:   %.3f\n", res.MeanRelErrDirect)
	fmt.Printf("cascade final samples:   %.1f per window (cap 50)\n", res.MeanFinalSamples)
	return nil
}

// coverageFig runs the empirical CI-coverage audit across the three
// sampling families and prints per-family coverage; with -coverage-out
// FILE it also writes the machine-readable JSON that becomes
// BENCH_accuracy.json (scripts/accuracy.sh).
func coverageFig(seed uint64, quick bool, out string) error {
	cfg := experiments.DefaultCoverage(seed)
	if quick {
		cfg = experiments.QuickCoverage(seed)
	}
	res, err := experiments.Coverage(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("CI-coverage audit — nominal 95%% intervals of ESTIMATE ... WITH ERROR vs true windowed sums (%d windows of %ds)\n",
		cfg.Windows, cfg.WindowSec)
	fmt.Printf("%-12s %10s %14s %16s %10s\n", "family", "coverage", "mean rel.err", "mean CI width", "mean ESS")
	for _, f := range res {
		fmt.Printf("%-12s %6d/%-3d %14.3f %16.3f %10.0f\n",
			f.Family, f.Covered, f.Total, f.MeanRelErr, f.MeanCIWidthRel, f.MeanESS)
	}
	if out == "" {
		return nil
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "experiments: coverage audit written to %s\n", out)
	return nil
}

func relaxFig(seed uint64, quick bool) error {
	factors := []float64{1, 2, 10, 100}
	if quick {
		factors = []float64{1, 10}
	}
	pts, err := experiments.RelaxSweep(seed, factors)
	if err != nil {
		return err
	}
	fmt.Println("Ablation — relaxation factor f")
	fmt.Printf("%-6s %12s %14s %18s\n", "f", "mean rel.err", "mean samples", "cleanings/window")
	for _, p := range pts {
		fmt.Printf("%-6.0f %12.3f %14.0f %18.1f\n", p.F, p.MeanRelErr, p.MeanSamples, p.CleaningsPerWindowSS)
	}
	return nil
}
