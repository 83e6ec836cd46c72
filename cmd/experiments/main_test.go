package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunQuickFigures(t *testing.T) {
	// Exercise the formatting paths on small runs; figure 5/6-style runs
	// are covered by internal/experiments tests and take seconds, so the
	// CLI test sticks to the cheap ones.
	for _, fig := range []string{"ddos", "overhead"} {
		if err := run(fig, 3, true, "", ""); err != nil {
			t.Errorf("run(%s): %v", fig, err)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run("notafig", 1, true, "", ""); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunProfileFig(t *testing.T) {
	out := filepath.Join(t.TempDir(), "profile.json")
	if err := run("profile", 3, true, out, ""); err != nil {
		t.Fatalf("run(profile): %v", err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("reading attribution JSON: %v", err)
	}
	var res struct {
		Packets int64 `json:"packets"`
		Stages  []struct {
			Stage  string  `json:"stage"`
			SelfNS float64 `json:"self_ns"`
		} `json:"stages"`
		Report struct {
			TotalSelfNS float64 `json:"total_self_ns"`
		} `json:"report"`
	}
	if err := json.Unmarshal(buf, &res); err != nil {
		t.Fatalf("attribution JSON: %v", err)
	}
	if res.Packets == 0 || len(res.Stages) == 0 || res.Report.TotalSelfNS == 0 {
		t.Errorf("attribution JSON missing fields: %+v", res)
	}
}

func TestRunCoverageFig(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_accuracy.json")
	if err := run("coverage", 42, true, "", out); err != nil {
		t.Fatalf("run(coverage): %v", err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("reading coverage JSON: %v", err)
	}
	var res []struct {
		Family   string  `json:"family"`
		Covered  int     `json:"covered"`
		Total    int     `json:"total"`
		Coverage float64 `json:"coverage"`
		Windows  []struct {
			Actual float64 `json:"actual"`
			CILo   float64 `json:"ci_lo"`
			CIHi   float64 `json:"ci_hi"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(buf, &res); err != nil {
		t.Fatalf("coverage JSON: %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("families = %d, want 3", len(res))
	}
	for _, f := range res {
		if f.Total == 0 || len(f.Windows) != f.Total {
			t.Errorf("%s: empty audit: %+v", f.Family, f)
		}
		if f.Coverage < 0.9 {
			t.Errorf("%s: coverage %.2f below 0.90", f.Family, f.Coverage)
		}
	}
}

// TestTeeStdout: -o mirrors stdout into experiments_output.txt, creating
// the directory, and restores stdout afterwards.
func TestTeeStdout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out", "experiments_output.txt")
	closeTee, err := teeStdout(path)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println("tee-check line")
	if err := closeTee(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), "tee-check line") {
		t.Errorf("tee file missing stdout copy: %q", buf)
	}
}
