package streamop_test

import (
	"crypto/sha256"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// exampleDigests pins the sha256 of each example's stdout. Every example
// seeds its feed and its query, so its output is the same bytes from run
// to run, but for twolevel's wall-clock busy= and cpu= fields, which
// exampleWallClock masks. The examples cover closure mode (minhash's whole
// walk, heavyhitters' HAVING and CLEANING BY), a user-defined aggregate
// (quantiles) and the flow sampler (flowsample); a change meant to move an
// example's output updates its digest by hand.
var exampleDigests = map[string]string{
	"flowsample":   "0a62619bf639320f099152c05543ca3e7a934c34e3c5e0932d02ada6cf375deb",
	"heavyhitters": "eb67548524991336fbb91295c0e8a3e1d07484400020064ab40d0f171cc987fb",
	"minhash":      "a7409bf674d42c3f23bcfe84731ece010c85f44b86b87b8f6c901b0eddae6f83",
	"netmon":       "d420ff74cd10ce7eab3bf5aa03284faa1c4130cce5ab7fe9ecb2f903f335e722",
	"quantiles":    "3c76bc4b0e4fbe518578e76beca79da93768ecbcb12e3092cec36fd1b58ad390",
	"quickstart":   "cd4bbbefb6243de9886ae55a440a459f3999a18ef450eaab17ad948d761d4236",
	"twolevel":     "932cebe0b5992707e770e98ed730f14c628ff3c4736b52721e490699b28f976b",
}

var exampleWallClock = regexp.MustCompile(`(busy|cpu)=\s*[^\s]+`)

func TestExampleDigests(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for name, want := range exampleDigests {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command(filepath.Join(bin, name)).Output()
			if err != nil {
				if ee, ok := err.(*exec.ExitError); ok {
					t.Fatalf("%s: %v\n%s", name, err, ee.Stderr)
				}
				t.Fatalf("%s: %v", name, err)
			}
			out = exampleWallClock.ReplaceAll(out, []byte("$1="))
			if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != want {
				t.Errorf("%s stdout sha256 = %s, want %s", name, got, want)
			}
		})
	}
}
