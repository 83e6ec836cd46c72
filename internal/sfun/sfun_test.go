package sfun

import (
	"fmt"
	"testing"

	"streamop/internal/value"
)

func TestRegisterState(t *testing.T) {
	r := NewRegistry()
	st := &StateType{Name: "s1", Init: func(old any) any { return 0 }}
	if err := r.RegisterState(st); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterState(st); err == nil {
		t.Error("duplicate state accepted")
	}
	if err := r.RegisterState(&StateType{Name: "", Init: st.Init}); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.RegisterState(&StateType{Name: "x"}); err == nil {
		t.Error("nil Init accepted")
	}
	if got, ok := r.State("S1"); !ok || got != st {
		t.Error("case-insensitive state lookup failed")
	}
	if _, ok := r.State("nosuch"); ok {
		t.Error("missing state found")
	}
}

func TestRegisterFunc(t *testing.T) {
	r := NewRegistry()
	call := func(state any, args []value.Value) (value.Value, error) {
		return value.NewBool(true), nil
	}
	if err := r.RegisterFunc(&Func{Name: "f", State: "ghost", Call: call}); err == nil {
		t.Error("unregistered state reference accepted")
	}
	r.MustRegisterState(&StateType{Name: "st", Init: func(any) any { return nil }})
	if err := r.RegisterFunc(&Func{Name: "f", State: "st", Call: call}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterFunc(&Func{Name: "F", State: "st", Call: call}); err == nil {
		t.Error("duplicate func (case-insensitive) accepted")
	}
	if err := r.RegisterFunc(&Func{Name: "", Call: call}); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.RegisterFunc(&Func{Name: "g"}); err == nil {
		t.Error("nil Call accepted")
	}
	if err := r.RegisterFunc(&Func{Name: "scalar", Call: call}); err != nil {
		t.Errorf("stateless func rejected: %v", err)
	}
	if f, ok := r.Func("F"); !ok || f.Name != "f" {
		t.Error("case-insensitive func lookup failed")
	}
}

func TestStateHandoff(t *testing.T) {
	// Verify the old-state handoff contract that the operator relies on.
	type st struct{ z float64 }
	typ := &StateType{
		Name: "ss",
		Init: func(old any) any {
			if old == nil {
				return &st{z: 1}
			}
			return &st{z: old.(*st).z / 10}
		},
	}
	fresh := typ.Init(nil).(*st)
	if fresh.z != 1 {
		t.Errorf("fresh state z = %v", fresh.z)
	}
	fresh.z = 50
	carried := typ.Init(fresh).(*st)
	if carried.z != 5 {
		t.Errorf("carried state z = %v", carried.z)
	}
}

func TestMustRegisterPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("MustRegisterState did not panic")
		}
	}()
	r.MustRegisterState(&StateType{Name: ""})
}

func TestRegisterAgg(t *testing.T) {
	r := NewRegistry()
	mkAgg := func(name string) *AggFunc {
		return &AggFunc{Name: name, New: func([]value.Value) (Accumulator, error) { return nil, nil }}
	}
	if err := r.RegisterAgg(&AggFunc{Name: ""}); err == nil {
		t.Error("empty aggregate accepted")
	}
	if err := r.RegisterAgg(&AggFunc{Name: "q"}); err == nil {
		t.Error("nil New accepted")
	}
	if err := r.RegisterAgg(mkAgg("q")); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterAgg(mkAgg("Q")); err == nil {
		t.Error("duplicate aggregate (case-insensitive) accepted")
	}
	// Collisions with functions, both directions.
	r.MustRegisterFunc(&Func{Name: "f", Call: func(any, []value.Value) (value.Value, error) {
		return value.Value{}, nil
	}})
	if err := r.RegisterAgg(mkAgg("f")); err == nil {
		t.Error("aggregate colliding with function accepted")
	}
	if err := r.RegisterFunc(&Func{Name: "q", Call: func(any, []value.Value) (value.Value, error) {
		return value.Value{}, nil
	}}); err == nil {
		t.Error("function colliding with aggregate accepted")
	}
	if a, ok := r.Agg("Q"); !ok || a.Name != "q" {
		t.Error("case-insensitive aggregate lookup failed")
	}
	if _, ok := r.Agg("none"); ok {
		t.Error("missing aggregate found")
	}
}

func TestMustRegisterAggAndFuncPanics(t *testing.T) {
	r := NewRegistry()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustRegisterAgg did not panic")
			}
		}()
		r.MustRegisterAgg(&AggFunc{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustRegisterFunc did not panic")
			}
		}()
		r.MustRegisterFunc(&Func{})
	}()
}

// TestScanDerivesCall: a function given as a Scan is registered with the
// Call that scans one row of constants, and giving both is refused.
func TestScanDerivesCall(t *testing.T) {
	r := NewRegistry()
	r.MustRegisterState(&StateType{Name: "n", Init: func(any) any { return new(int) }})
	scan := func(state any, args Args, from, to int) (int, error) {
		seen := state.(*int)
		for row := from; row < to; row++ {
			v := args.Value(0, row)
			if !v.Kind().Numeric() {
				return row, fmt.Errorf("above: got %s", v.Kind())
			}
			*seen++
			if v.AsInt() > 2 {
				return row, nil
			}
		}
		return to, nil
	}
	call := func(any, []value.Value) (value.Value, error) { return value.Value{}, nil }
	if err := r.RegisterFunc(&Func{Name: "both", State: "n", Call: call, Scan: scan}); err == nil {
		t.Error("Call and Scan together accepted")
	}
	r.MustRegisterFunc(&Func{Name: "above", State: "n", Scan: scan})
	f, _ := r.Func("above")
	st := new(int)
	for _, c := range []struct {
		arg  value.Value
		want string
	}{{value.NewInt(1), "FALSE"}, {value.NewInt(3), "TRUE"}, {value.NewString("x"), "error: above: got string"}} {
		v, err := f.Call(st, []value.Value{c.arg})
		got := v.String()
		if err != nil {
			got = "error: " + err.Error()
		}
		if got != c.want {
			t.Errorf("Call(%v) = %s, want %s", c.arg, got, c.want)
		}
	}
	if *st != 2 {
		t.Errorf("state saw %d rows, want 2", *st)
	}
}
