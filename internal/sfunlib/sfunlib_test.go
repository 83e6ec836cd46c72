package sfunlib

import (
	"math"
	"strings"
	"testing"

	"streamop/internal/sfun"
	"streamop/internal/value"
)

func reg(t *testing.T) *sfun.Registry {
	t.Helper()
	return Default(1)
}

func call(t *testing.T, r *sfun.Registry, name string, state any, args ...value.Value) value.Value {
	t.Helper()
	f, ok := r.Func(name)
	if !ok {
		t.Fatalf("function %q not registered", name)
	}
	v, err := f.Call(state, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func callErr(t *testing.T, r *sfun.Registry, name string, state any, args ...value.Value) error {
	t.Helper()
	f, ok := r.Func(name)
	if !ok {
		t.Fatalf("function %q not registered", name)
	}
	_, err := f.Call(state, args)
	return err
}

func newState(t *testing.T, r *sfun.Registry, name string, old any) any {
	t.Helper()
	st, ok := r.State(name)
	if !ok {
		t.Fatalf("state %q not registered", name)
	}
	return st.Init(old)
}

func TestRegisterIdempotenceError(t *testing.T) {
	r := Default(1)
	if err := Register(r, 1); err == nil {
		t.Error("double registration succeeded")
	}
}

func TestScalars(t *testing.T) {
	r := reg(t)
	if v := call(t, r, "UMAX", nil, value.NewInt(3), value.NewInt(7)); v.Int() != 7 {
		t.Errorf("UMAX = %v", v)
	}
	if v := call(t, r, "umin", nil, value.NewInt(3), value.NewInt(7)); v.Int() != 3 {
		t.Errorf("UMIN = %v", v)
	}
	if err := callErr(t, r, "UMAX", nil, value.NewInt(1)); err == nil {
		t.Error("UMAX arity unchecked")
	}
	h1 := call(t, r, "H", nil, value.NewUint(5))
	h2 := call(t, r, "H", nil, value.NewUint(5))
	if h1.Uint() != h2.Uint() {
		t.Error("H not deterministic")
	}
	h3 := call(t, r, "H", nil, value.NewUint(5), value.NewInt(99))
	if h3.Uint() == h1.Uint() {
		t.Error("H seed ignored")
	}
	if err := callErr(t, r, "H", nil); err == nil {
		t.Error("H arity unchecked")
	}
	if err := callErr(t, r, "H", nil, value.NewUint(1), value.NewString("x")); err == nil {
		t.Error("H non-numeric seed accepted")
	}
}

func TestSubsetSumConfigValidation(t *testing.T) {
	r := reg(t)
	cases := [][]value.Value{
		{value.NewInt(10)},                                                                            // missing N
		{value.NewInt(10), value.NewInt(0)},                                                           // N < 1
		{value.NewInt(10), value.NewInt(5), value.NewFloat(1)},                                        // theta <= 1
		{value.NewInt(10), value.NewInt(5), value.NewFloat(2), value.NewFloat(0.5)},                   // relax < 1
		{value.NewInt(10), value.NewInt(5), value.NewFloat(2), value.NewFloat(1), value.NewFloat(-1)}, // z0 <= 0
		{value.NewInt(10), value.NewString("x")},                                                      // non-numeric
	}
	for i, args := range cases {
		st := newState(t, r, SubsetSumStateName, nil)
		if err := callErr(t, r, "ssample", st, args...); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSubsetSumAdmission(t *testing.T) {
	r := reg(t)
	st := newState(t, r, SubsetSumStateName, nil)
	// z0 = 100; N=10.
	args := func(w float64) []value.Value {
		return []value.Value{value.NewFloat(w), value.NewInt(10), value.NewFloat(2), value.NewFloat(1), value.NewFloat(100)}
	}
	if v := call(t, r, "ssample", st, args(500)...); !v.Truth() {
		t.Error("large item rejected")
	}
	// 150 small items of weight 1: the counter crosses z=100 once
	// (strictly greater-than), so exactly one is admitted.
	admitted := 0
	for i := 0; i < 150; i++ {
		if call(t, r, "ssample", st, args(1)...).Truth() {
			admitted++
		}
	}
	if admitted != 1 {
		t.Errorf("admitted %d small of 150 at z=100", admitted)
	}
	if v := call(t, r, "ssthreshold", st); v.Float() != 100 {
		t.Errorf("ssthreshold = %v", v)
	}
}

func TestSubsetSumCleaningCycle(t *testing.T) {
	r := reg(t)
	st := newState(t, r, SubsetSumStateName, nil)
	args := []value.Value{value.NewFloat(5), value.NewInt(4), value.NewFloat(2), value.NewFloat(1), value.NewFloat(100)}
	// Offer small items (w=5 << z=100) until 10 are admitted.
	admitted := 0
	for i := 0; admitted < 10 && i < 1000; i++ {
		if call(t, r, "ssample", st, args...).Truth() {
			admitted++
		}
	}
	if admitted != 10 {
		t.Fatalf("admitted %d", admitted)
	}
	if v := call(t, r, "ssdo_clean", st, value.NewInt(10)); !v.Truth() {
		t.Fatal("cleaning not triggered at 10 > 8")
	}
	// Aggressive adjustment: z' = z*(S-B)/(M-B) = 100*10/4 = 250.
	zAfter := call(t, r, "ssthreshold", st).Float()
	if zAfter != 250 {
		t.Errorf("adjusted threshold = %v, want 250", zAfter)
	}
	// Cleaning pass: each sample's effective size is zPrev=100; one kept
	// per 250 of accumulated mass -> 4 of 10.
	kept := 0
	for i := 0; i < 10; i++ {
		if call(t, r, "ssclean_with", st, value.NewFloat(5)).Truth() {
			kept++
		}
	}
	if kept < 3 || kept > 4 { // 1000 mass / z'=250, minus boundary effects
		t.Errorf("cleaning kept %d of 10, want 3-4", kept)
	}
	if v := call(t, r, "ssdo_clean", st, value.NewInt(int64(kept))); v.Truth() {
		t.Error("cleaning re-triggered below threshold")
	}
}

func TestSubsetSumFinalClean(t *testing.T) {
	r := reg(t)
	stType, _ := r.State(SubsetSumStateName)
	st := newState(t, r, SubsetSumStateName, nil)
	args := []value.Value{value.NewFloat(5), value.NewInt(4), value.NewFloat(10), value.NewFloat(1), value.NewFloat(100)}
	// Admit 30 small samples (theta=10 so no in-window cleaning fires).
	admitted := 0
	for i := 0; admitted < 30 && i < 3000; i++ {
		if call(t, r, "ssample", st, args...).Truth() {
			admitted++
		}
	}
	stType.WindowFinal(st)
	kept := 0
	for i := 0; i < 30; i++ {
		if call(t, r, "ssfinal_clean", st, value.NewFloat(5), value.NewInt(30)).Truth() {
			kept++
		}
	}
	if kept < 3 || kept > 4 { // z' = 100*30/4; one kept per 7.5 samples
		t.Errorf("final clean kept %d of 30, want 3-4", kept)
	}
	// Below N: everything kept.
	st2 := newState(t, r, SubsetSumStateName, nil)
	call(t, r, "ssample", st2, args...)
	stType.WindowFinal(st2)
	for i := 0; i < 3; i++ {
		if !call(t, r, "ssfinal_clean", st2, value.NewFloat(5), value.NewInt(3)).Truth() {
			t.Error("final clean evicted below N")
		}
	}
}

func TestSubsetSumStateCarry(t *testing.T) {
	r := reg(t)
	stType, _ := r.State(SubsetSumStateName)
	st := newState(t, r, SubsetSumStateName, nil).(*ssState)
	// Configure with relax=10, z0=200.
	call(t, r, "ssample", st, value.NewFloat(1), value.NewInt(5), value.NewFloat(2), value.NewFloat(10), value.NewFloat(200))
	carried := stType.Init(st).(*ssState)
	if !carried.configured {
		t.Fatal("carried state unconfigured")
	}
	if math.Abs(carried.Z-20) > 1e-9 {
		t.Errorf("carried z = %v, want 200/10", carried.Z)
	}
	if carried.n != 5 || carried.relax != 10 {
		t.Errorf("carried config: n=%d relax=%v", carried.n, carried.relax)
	}
	// Fresh state from nil old.
	fresh := stType.Init(nil).(*ssState)
	if fresh.configured {
		t.Error("fresh state claims configured")
	}
}

func TestSubsetSumWrongStateType(t *testing.T) {
	r := reg(t)
	if err := callErr(t, r, "ssample", "bogus", value.NewFloat(1), value.NewInt(5)); err == nil ||
		!strings.Contains(err.Error(), "wrong state type") {
		t.Errorf("wrong-state error = %v", err)
	}
}

func TestReservoirConfigValidation(t *testing.T) {
	r := reg(t)
	cases := [][]value.Value{
		{value.NewUint(1)},                                     // missing n
		{value.NewUint(1), value.NewInt(0)},                    // n < 1
		{value.NewUint(1), value.NewInt(5), value.NewFloat(1)}, // tol <= 1
		{value.NewString("x"), value.NewInt(5)},                // bad tag
	}
	for i, args := range cases {
		st := newState(t, r, ReservoirStateName, nil)
		if err := callErr(t, r, "rsample", st, args...); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReservoirExactness(t *testing.T) {
	r := reg(t)
	st := newState(t, r, ReservoirStateName, nil)
	n := int64(10)
	admitted := map[uint64]bool{}
	for tag := uint64(0); tag < 1000; tag++ {
		v := call(t, r, "rsample", st, value.NewUint(tag), value.NewInt(n), value.NewFloat(5))
		if v.Truth() {
			admitted[tag] = true
		}
	}
	// Final reservoir: exactly n tags, all among the admitted.
	live := 0
	for tag := uint64(0); tag < 1000; tag++ {
		if call(t, r, "rsfinal_clean", st, value.NewUint(tag)).Truth() {
			live++
			if !admitted[tag] {
				t.Errorf("tag %d in reservoir but never admitted", tag)
			}
		}
	}
	if live != int(n) {
		t.Errorf("reservoir holds %d, want %d", live, n)
	}
	// rsdo_clean triggers only above tol*n.
	if call(t, r, "rsdo_clean", st, value.NewInt(40)).Truth() {
		t.Error("cleaning triggered at 40 <= 50")
	}
	if !call(t, r, "rsdo_clean", st, value.NewInt(51)).Truth() {
		t.Error("cleaning not triggered at 51 > 50")
	}
}

func TestReservoirCarryConfigOnly(t *testing.T) {
	r := reg(t)
	stType, _ := r.State(ReservoirStateName)
	st := newState(t, r, ReservoirStateName, nil).(*rsState)
	call(t, r, "rsample", st, value.NewUint(1), value.NewInt(7), value.NewFloat(3))
	carried := stType.Init(st).(*rsState)
	if carried.N != 7 || carried.tol != 3 {
		t.Errorf("carried config n=%d tol=%v", carried.N, carried.tol)
	}
	if len(carried.tags) != 0 || carried.Seen != 0 {
		t.Error("sample state leaked across windows")
	}
}

func TestHeavyHitterHelpers(t *testing.T) {
	r := reg(t)
	st := newState(t, r, HeavyHitterStateName, nil)
	// Before local_count configures the width, current_bucket is 1.
	if v := call(t, r, "current_bucket", st); v.Int() != 1 {
		t.Errorf("initial bucket = %v", v)
	}
	fires := 0
	for i := 1; i <= 25; i++ {
		if call(t, r, "local_count", st, value.NewInt(10)).Truth() {
			fires++
		}
	}
	if fires != 2 {
		t.Errorf("local_count fired %d times in 25 calls at w=10", fires)
	}
	if v := call(t, r, "current_bucket", st); v.Int() != 3 { // ceil(25/10)
		t.Errorf("bucket = %v, want 3", v)
	}
	if err := callErr(t, r, "local_count", st, value.NewInt(0)); err == nil {
		t.Error("width 0 accepted")
	}
	// Bucket width carries across windows.
	stType, _ := r.State(HeavyHitterStateName)
	carried := stType.Init(st).(*hhState)
	if carried.w != 10 || carried.count != 0 {
		t.Errorf("carried hh state: w=%d count=%d", carried.w, carried.count)
	}
}

func TestReservoirDifferentSeedsDiffer(t *testing.T) {
	// Two registries with different seeds should produce different
	// reservoirs over the same stream.
	pick := func(seed uint64) map[uint64]bool {
		r := Default(seed)
		st := newState(t, r, ReservoirStateName, nil)
		for tag := uint64(0); tag < 500; tag++ {
			call(t, r, "rsample", st, value.NewUint(tag), value.NewInt(20), value.NewFloat(5))
		}
		out := map[uint64]bool{}
		for tag := uint64(0); tag < 500; tag++ {
			if call(t, r, "rsfinal_clean", st, value.NewUint(tag)).Truth() {
				out[tag] = true
			}
		}
		return out
	}
	a, b := pick(1), pick(2)
	same := 0
	for k := range a {
		if b[k] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical reservoirs")
	}
}

func TestBasicSubsetSumUDF(t *testing.T) {
	r := reg(t)
	st, ok := r.State(BasicSubsetSumStateName)
	if !ok {
		t.Fatal("bss state not registered")
	}
	s := st.Init(nil)
	// Large item passes immediately.
	if !call(t, r, "bssample", s, value.NewFloat(500), value.NewFloat(100)).Truth() {
		t.Error("large item rejected")
	}
	// Small items pass once per z of accumulated mass.
	passed := 0
	for i := 0; i < 250; i++ {
		if call(t, r, "bssample", s, value.NewFloat(1), value.NewFloat(100)).Truth() {
			passed++
		}
	}
	if passed != 2 {
		t.Errorf("passed %d of 250 at z=100, want 2", passed)
	}
	// Validation.
	if err := callErr(t, r, "bssample", s, value.NewFloat(1), value.NewFloat(0)); err == nil {
		t.Error("z=0 accepted")
	}
	if err := callErr(t, r, "bssample", s, value.NewFloat(1)); err == nil {
		t.Error("missing z accepted")
	}
	if err := callErr(t, r, "bssample", "wrong", value.NewFloat(1), value.NewFloat(10)); err == nil {
		t.Error("wrong state type accepted")
	}
}

func TestDistinctFamily(t *testing.T) {
	r := reg(t)
	st := newState(t, r, DistinctStateName, nil)

	// All-ones hash has 0 trailing zeros: admitted only at level 0.
	if !call(t, r, "dsample", st, value.NewUint(1), value.NewInt(8)).Truth() {
		t.Error("level-0 admission rejected")
	}
	if v := call(t, r, "dsscale", st); v.Uint() != 1 {
		t.Errorf("scale = %v at level 0", v)
	}
	// Overflow raises the level.
	if call(t, r, "dsdo_clean", st, value.NewInt(8)).Truth() {
		t.Error("clean triggered at capacity")
	}
	if !call(t, r, "dsdo_clean", st, value.NewInt(9)).Truth() {
		t.Error("clean not triggered over capacity")
	}
	if v := call(t, r, "dsscale", st); v.Uint() != 2 {
		t.Errorf("scale = %v after one raise", v)
	}
	// Odd hashes no longer qualify; even ones do.
	if call(t, r, "dskeep", st, value.NewUint(1)).Truth() {
		t.Error("odd hash kept at level 1")
	}
	if !call(t, r, "dskeep", st, value.NewUint(2)).Truth() {
		t.Error("even hash evicted at level 1")
	}
	if call(t, r, "dsample", st, value.NewUint(3), value.NewInt(8)).Truth() {
		t.Error("odd hash admitted at level 1")
	}

	// Config carry across windows; level resets.
	stType, _ := r.State(DistinctStateName)
	carried := stType.Init(st).(*dsState)
	if !carried.configured || carried.capacity != 8 || carried.level != 0 {
		t.Errorf("carried ds state: %+v", carried)
	}

	// Validation.
	fresh := newState(t, r, DistinctStateName, nil)
	if err := callErr(t, r, "dsample", fresh, value.NewUint(1), value.NewInt(0)); err == nil {
		t.Error("capacity 0 accepted")
	}
	if err := callErr(t, r, "dsample", "wrong", value.NewUint(1), value.NewInt(8)); err == nil {
		t.Error("wrong state type accepted")
	}
	if err := callErr(t, r, "dskeep", st); err == nil {
		t.Error("missing hash accepted")
	}
	if err := callErr(t, r, "dsdo_clean", st, value.NewString("x")); err == nil {
		t.Error("non-numeric count accepted")
	}
}

func TestReservoirWrongStateAndArgs(t *testing.T) {
	r := reg(t)
	for _, fn := range []string{"rsample", "rsdo_clean", "rsclean_with", "rsfinal_clean"} {
		if err := callErr(t, r, fn, "wrong", value.NewUint(1), value.NewInt(5)); err == nil {
			t.Errorf("%s accepted wrong state type", fn)
		}
	}
	st := newState(t, r, ReservoirStateName, nil)
	call(t, r, "rsample", st, value.NewUint(1), value.NewInt(5))
	if err := callErr(t, r, "rsclean_with", st, value.NewString("x")); err == nil {
		t.Error("rsclean_with non-numeric tag accepted")
	}
	if err := callErr(t, r, "rsdo_clean", st, value.NewString("x")); err == nil {
		t.Error("rsdo_clean non-numeric count accepted")
	}
}

func TestSubsetSumCleanFamilyErrors(t *testing.T) {
	r := reg(t)
	for _, fn := range []string{"ssthreshold", "ssdo_clean", "ssclean_with", "ssfinal_clean"} {
		if err := callErr(t, r, fn, "wrong", value.NewFloat(1), value.NewInt(1)); err == nil {
			t.Errorf("%s accepted wrong state type", fn)
		}
	}
	st := newState(t, r, SubsetSumStateName, nil)
	if err := callErr(t, r, "ssclean_with", st, value.NewString("x")); err == nil {
		t.Error("ssclean_with non-numeric accepted")
	}
	if err := callErr(t, r, "ssfinal_clean", st, value.NewFloat(1), value.NewString("x")); err == nil {
		t.Error("ssfinal_clean non-numeric count accepted")
	}
	if err := callErr(t, r, "ssdo_clean", st, value.NewString("x")); err == nil {
		t.Error("ssdo_clean non-numeric accepted")
	}
}

func TestHeavyHitterWrongState(t *testing.T) {
	r := reg(t)
	if err := callErr(t, r, "local_count", "wrong", value.NewInt(5)); err == nil {
		t.Error("local_count accepted wrong state type")
	}
	if err := callErr(t, r, "current_bucket", "wrong"); err == nil {
		t.Error("current_bucket accepted wrong state type")
	}
	st := newState(t, r, HeavyHitterStateName, nil)
	if err := callErr(t, r, "local_count", st, value.NewString("x")); err == nil {
		t.Error("non-numeric width accepted")
	}
}

func TestPriorityFamily(t *testing.T) {
	r := reg(t)
	st := newState(t, r, PriorityStateName, nil)
	args := func(tag uint64, w float64) []value.Value {
		return []value.Value{value.NewUint(tag), value.NewFloat(w), value.NewInt(3)}
	}
	// First k items always admitted.
	for tag := uint64(1); tag <= 3; tag++ {
		if !call(t, r, "psample", st, args(tag, 10)...).Truth() {
			t.Fatalf("item %d rejected below k", tag)
		}
	}
	if call(t, r, "pstau", st).Float() != 0 {
		t.Error("tau set before overflow")
	}
	// Offer many more; exactly 3 tags survive pskeep, tau becomes positive.
	for tag := uint64(4); tag <= 500; tag++ {
		call(t, r, "psample", st, args(tag, 10)...)
	}
	kept := 0
	for tag := uint64(1); tag <= 500; tag++ {
		if call(t, r, "pskeep", st, value.NewUint(tag)).Truth() {
			kept++
		}
	}
	if kept != 3 {
		t.Errorf("pskeep kept %d, want 3", kept)
	}
	if call(t, r, "pstau", st).Float() <= 0 {
		t.Error("tau not set after overflow")
	}
	// Cleaning trigger at > 2k.
	if call(t, r, "psdo_clean", st, value.NewInt(6)).Truth() {
		t.Error("clean at 6 <= 2k")
	}
	if !call(t, r, "psdo_clean", st, value.NewInt(7)).Truth() {
		t.Error("no clean at 7 > 2k")
	}
	// Zero weight rejected.
	if call(t, r, "psample", st, args(999, 0)...).Truth() {
		t.Error("zero weight admitted")
	}
	// Validation and state errors.
	fresh := newState(t, r, PriorityStateName, nil)
	if err := callErr(t, r, "psample", fresh, value.NewUint(1), value.NewFloat(1), value.NewInt(0)); err == nil {
		t.Error("k=0 accepted")
	}
	for _, fn := range []string{"psample", "pskeep", "psdo_clean", "pstau"} {
		if err := callErr(t, r, fn, "wrong", value.NewUint(1), value.NewFloat(1), value.NewInt(1)); err == nil {
			t.Errorf("%s accepted wrong state", fn)
		}
	}
	// Config carries, sample resets.
	stType, _ := r.State(PriorityStateName)
	carried := stType.Init(st).(*psState)
	if carried.K != 3 || len(carried.tags) != 0 || carried.Tau != 0 {
		t.Errorf("carried ps state: %+v", carried)
	}
}
