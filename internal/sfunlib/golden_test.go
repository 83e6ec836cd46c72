package sfunlib

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"streamop/internal/checkpoint"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

var updateCodecGolden = flag.Bool("update-codec-golden", false,
	"rewrite testdata/state_codec_golden.json from this run")

// finalSteps are the window-border calls a family makes after WindowFinal,
// which familyScripts does not drive.
var finalSteps = map[string]step{
	SubsetSumStateName: {"ssfinal_clean", func(i int) []value.Value {
		return []value.Value{vi(40 + int64(i*37%1460)), vi(250)}
	}},
	ReservoirStateName: {"rsfinal_clean", func(i int) []value.Value { return []value.Value{vu(uint64(i * 5))} }},
}

// TestStateCodecGolden pins every family's checkpoint bytes and shared
// instance counter against testdata/state_codec_golden.json. Each family
// runs its familyScripts mix from a fixed seed through mid-window, a window
// border (WindowFinal plus the family's final predicate) and a handoff into
// the next window's state; the golden holds the encoded state at each point,
// the encoded shared context, and a digest of every value the calls
// returned. The round-trip tests compare two states of one build, so they
// cannot see the byte layout drift or a sampler draw differently; this can.
func TestStateCodecGolden(t *testing.T) {
	const golden = "testdata/state_codec_golden.json"
	var want map[string]string
	if !*updateCodecGolden {
		raw, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for name := range familyScripts(xrand.New(0)) {
		names = append(names, name)
	}
	sort.Strings(names)
	got := map[string]string{}
	for _, name := range names {
		// Argument builders share one generator, so each family gets its
		// own copy of the scripts to stay independent of map order.
		script := familyScripts(xrand.New(17))[name]
		reg := Default(2005)
		st, _ := reg.State(name)
		returns := sha256.New()
		run := func(state any, stp step, i int) {
			fn, ok := reg.Func(stp.fn)
			if !ok {
				t.Fatalf("func %q not registered", stp.fn)
			}
			v, err := fn.Call(state, stp.args(i))
			if err != nil {
				t.Fatalf("%s step %d: %v", stp.fn, i, err)
			}
			fmt.Fprintf(returns, "%s %d %s\n", stp.fn, i, v)
		}
		record := func(phase string, state any) {
			got[name+"/"+phase] = hex.EncodeToString(encodeState(t, st, state))
		}

		state := st.Init(nil)
		for i := 0; i < 300; i++ {
			for _, stp := range script {
				run(state, stp, i)
			}
			if i == 149 {
				record("mid", state)
			}
		}
		if st.WindowFinal != nil {
			st.WindowFinal(state)
		}
		if fin, ok := finalSteps[name]; ok {
			for i := 0; i < 60; i++ {
				run(state, fin, i)
			}
		}
		record("final", state)
		next := st.Init(state)
		record("handoff", next)
		for i := 300; i < 400; i++ {
			for _, stp := range script {
				run(next, stp, i)
			}
		}
		record("next", next)
		if st.EncodeShared != nil {
			e := checkpoint.NewEncoder()
			st.EncodeShared(e)
			got[name+"/shared"] = hex.EncodeToString(e.Bytes())
		}
		got[name+"/returns"] = hex.EncodeToString(returns.Sum(nil))
	}
	if *updateCodecGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s:\n got %s\nwant %s", key, got[key], w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in %s", key, golden)
		}
	}
}
