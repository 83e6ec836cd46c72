package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"testing"
)

// TestMain doubles the test binary as the experiments command: started
// with -fig as its first argument it runs main, so
// TestQuickFigureDigests can run each figure in a process of its own and
// read its stdout.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-fig" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// quickFigureDigests pins the sha256 of `experiments -fig F -quick`'s
// stdout at the default seed for every figure whose output is
// deterministic (repeated runs print identical bytes). Figures 2-4 run
// subsetsum.Dynamic and ddos runs flow.Sampler, so a change to a
// sampler's draws, its cleaning or the end-of-window subsampling shows
// here; a change meant to move a figure updates its digest by hand.
var quickFigureDigests = map[string]string{
	"2":       "f0a73d7c186f59ced3c87409e0227957effe719f2b68af1b35953574c3982cef",
	"3":       "a071a5414330bc421f1e34c6f0aa875e8df3d63f3004de533fbe92da40a047c7",
	"4":       "b33fda4bde4d2f039ed39e7f8955397d8f8d90bd82a48d847662370a5ab0612c",
	"sizes":   "0b0d0989412c6cd652201f92572064934b1416bde71c0cfa1e1413a0840602e2",
	"relax":   "a82c28510034803dba3a979a52570438227a3160fcac84102fdc9015220a5bc2",
	"ddos":    "6807964efc749551d379181e2a6a214bfcd850dbb71bcb5c2ba7f74ad16998bc",
	"cascade": "bacfcb7530de97a5f1c7cdf1c6034528f4610494384ef3686269273a0723b09d",
}

// timedFigureDigests pins the same digest for the figures that also print
// wall-clock measurements, with timingFields masked first: CPU
// percentages, ns/packet and the overhead factor, and shard's GOMAXPROCS,
// sequential-Run time and each row's wall ms, pkts/sec and speedup. What
// is left (sample sizes, theta's cleanings, Figure 6's rows on the hop,
// hhpush's forwarded and eviction counts and found flags, overhead's
// packet count and estimate agreement, shard's groups, evictions and
// exact column) is the same bytes from run to run.
var timedFigureDigests = map[string]string{
	"5":        "13f8c516afaf865f62f608fc7fbe3d8760280154dcfc7036b9c3cd7fe040452f",
	"6":        "15f76ea420ff6b726e7934fe84829e56059dbb6029a3554465ce955738cf0221",
	"theta":    "769551195bab8726a778bc375f407f248f364bc2cbe6827f48e05670303f3780",
	"hhpush":   "115f1c994f8e32a52a08633539d33a3fcaf2e3308cb567e23bea7c0db3449f20",
	"overhead": "1ec1c7c9c82c2988a816c79de3a0eec73df1661051b964b15a6af06755e59f87",
	"shard":    "2d6b9f3fc4c93c536f04f28d6653fbd0796500243e562c2fa1ae634cfa12365e",
}

var timingFields = regexp.MustCompile(`\s*\d+\.\d+%|(ns/packet:|factor:|GOMAXPROCS:|sequential Run:)\s*[0-9.]+x?|(?m:^(\d+)(?:\s+[0-9.]+){2}\s+[0-9.]+x)`)

func TestQuickFigureDigests(t *testing.T) {
	check := func(fig, want string, mask bool) {
		t.Run(fig, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command(os.Args[0], "-fig", fig, "-quick").Output()
			if err != nil {
				if ee, ok := err.(*exec.ExitError); ok {
					t.Fatalf("-fig %s -quick: %v\n%s", fig, err, ee.Stderr)
				}
				t.Fatalf("-fig %s -quick: %v", fig, err)
			}
			if mask {
				out = timingFields.ReplaceAll(out, []byte("${1}${2}"))
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != want {
				t.Errorf("-fig %s -quick stdout sha256 = %s, want %s\n%s", fig, got, want, out)
			}
		})
	}
	for fig, want := range quickFigureDigests {
		check(fig, want, false)
	}
	for fig, want := range timedFigureDigests {
		check(fig, want, true)
	}
}
