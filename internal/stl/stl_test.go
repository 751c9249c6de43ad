package stl

import (
	"math"
	"strings"
	"testing"
)

func mkTrace(t *testing.T, step float64, signals map[string][]float64) *Trace {
	t.Helper()
	tr, err := NewTrace(step)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic insert order not needed; Add validates lengths.
	for name, vals := range signals {
		if err := tr.Add(name, vals); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// mustParse parses a formula the test states, failing the test if it
// does not parse.
func mustParse(t *testing.T, input string) Formula {
	t.Helper()
	f, err := Parse(input)
	if err != nil {
		t.Fatalf("Parse(%q): %v", input, err)
	}
	return f
}

func TestTraceConstruction(t *testing.T) {
	if _, err := NewTrace(0); err == nil {
		t.Error("zero step should error")
	}
	if _, err := NewTrace(math.NaN()); err == nil {
		t.Error("NaN step should error")
	}
	tr := mkTrace(t, 10, map[string][]float64{"a": {1, 2, 3}})
	if tr.Len() != 3 || tr.Duration() != 30 || tr.Step() != 10 {
		t.Errorf("trace shape wrong: len=%d dur=%g", tr.Len(), tr.Duration())
	}
	if err := tr.Add("a", []float64{1}); err == nil {
		t.Error("duplicate signal should error")
	}
	if err := tr.Add("b", []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if err := tr.Add("", []float64{1, 2, 3}); err == nil {
		t.Error("empty name should error")
	}
	if !tr.Has("a") || tr.Has("zzz") {
		t.Error("Has wrong")
	}
	if _, err := tr.Value("a", 5); err == nil {
		t.Error("out-of-range Value should error")
	}
	if _, err := tr.Value("nope", 0); err == nil {
		t.Error("unknown signal should error")
	}
	if got := tr.Names(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Names = %v", got)
	}
	sig, err := tr.Signal("a")
	if err != nil || len(sig) != 3 {
		t.Errorf("Signal copy wrong: %v, %v", sig, err)
	}
	sig[0] = 99
	if v, _ := tr.Value("a", 0); v == 99 {
		t.Error("Signal should return a copy")
	}
}

func TestAtomSatAndRobustness(t *testing.T) {
	tr := mkTrace(t, 1, map[string][]float64{"x": {1, 5, 10}})
	cases := []struct {
		f    Formula
		i    int
		want bool
	}{
		{Atom{"x", LT, 3}, 0, true},
		{Atom{"x", LT, 3}, 1, false},
		{Atom{"x", LE, 5}, 1, true},
		{Atom{"x", GT, 4}, 1, true},
		{Atom{"x", GE, 10}, 2, true},
		{Atom{"x", EQ, 5}, 1, true},
		{Atom{"x", EQ, 5}, 0, false},
		{Atom{"x", NE, 5}, 0, true},
		{Atom{"x", NE, 5}, 1, false},
	}
	for _, c := range cases {
		got, err := c.f.Sat(tr, c.i)
		if err != nil || got != c.want {
			t.Errorf("%v@%d = %v,%v want %v", c.f, c.i, got, err, c.want)
		}
	}
}

func TestBooleanConnectives(t *testing.T) {
	tr := mkTrace(t, 1, map[string][]float64{"x": {2}, "y": {8}})
	xLow := Atom{"x", LT, 5}  // true
	yLow := Atom{"y", LT, 5}  // false
	yHigh := Atom{"y", GT, 5} // true

	if ok, _ := (And{Fs: []Formula{xLow, yHigh}}).Sat(tr, 0); !ok {
		t.Error("And of trues should hold")
	}
	if ok, _ := (And{Fs: []Formula{xLow, yLow}}).Sat(tr, 0); ok {
		t.Error("And with a false conjunct should fail")
	}
	if ok, _ := (Or{Fs: []Formula{yLow, xLow}}).Sat(tr, 0); !ok {
		t.Error("Or with a true disjunct should hold")
	}
	if ok, _ := (Not{F: yLow}).Sat(tr, 0); !ok {
		t.Error("Not false should hold")
	}
	if ok, _ := (Implies{A: yLow, B: yLow}).Sat(tr, 0); !ok {
		t.Error("false -> anything should hold")
	}
	if ok, _ := (Implies{A: xLow, B: yLow}).Sat(tr, 0); ok {
		t.Error("true -> false should fail")
	}
}

func TestConst(t *testing.T) {
	tr := mkTrace(t, 1, map[string][]float64{"x": {0}})
	if ok, _ := Const(true).Sat(tr, 0); !ok {
		t.Error("true const")
	}
	if ok, _ := Const(false).Sat(tr, 0); ok {
		t.Error("false const")
	}
}

func TestGloballyBounded(t *testing.T) {
	// x: high for first 5 samples, dips at index 5.
	tr := mkTrace(t, 10, map[string][]float64{"x": {9, 9, 9, 9, 9, 1, 9, 9}})
	g04 := Globally{I: Interval{0, 40}, F: Atom{"x", GT, 5}}
	if ok, _ := g04.Sat(tr, 0); !ok {
		t.Error("G[0,40] over high prefix should hold")
	}
	g05 := Globally{I: Interval{0, 50}, F: Atom{"x", GT, 5}}
	if ok, _ := g05.Sat(tr, 0); ok {
		t.Error("G[0,50] including the dip should fail")
	}
	// Window beyond trace end: clipped, vacuous when empty.
	gBeyond := Globally{I: Interval{1000, 2000}, F: Atom{"x", GT, 5}}
	if ok, _ := gBeyond.Sat(tr, 0); !ok {
		t.Error("empty clipped window should be vacuously true")
	}
}

func TestEventuallyBounded(t *testing.T) {
	tr := mkTrace(t, 10, map[string][]float64{"e": {0, 0, 0, 1, 0}})
	if ok, _ := (Eventually{I: Interval{0, 20}, F: Atom{"e", GE, 1}}).Sat(tr, 0); ok {
		t.Error("event at t=30 should not be found in [0,20]")
	}
	if ok, _ := (Eventually{I: Interval{0, 30}, F: Atom{"e", GE, 1}}).Sat(tr, 0); !ok {
		t.Error("event at t=30 should be found in [0,30]")
	}
	// Relative to a later instant.
	if ok, _ := (Eventually{I: Interval{0, 10}, F: Atom{"e", GE, 1}}).Sat(tr, 3); !ok {
		t.Error("event at own instant should be found")
	}
	// Empty window is false.
	e := Eventually{I: Interval{1000, 2000}, F: Atom{"e", GE, 1}}
	if ok, _ := e.Sat(tr, 0); ok {
		t.Error("empty window Eventually should be false")
	}
}

func TestUntil(t *testing.T) {
	// state holds until event fires at index 4.
	tr := mkTrace(t, 1, map[string][]float64{
		"state": {1, 1, 1, 1, 0, 0},
		"event": {0, 0, 0, 0, 1, 0},
	})
	u := Until{I: Whole, A: Atom{"state", GE, 1}, B: Atom{"event", GE, 1}}
	if ok, err := u.Sat(tr, 0); err != nil || !ok {
		t.Errorf("Until should hold: %v, %v", ok, err)
	}
	// If the state dips before the event, Until fails.
	tr2 := mkTrace(t, 1, map[string][]float64{
		"state": {1, 0, 1, 1, 0, 0},
		"event": {0, 0, 0, 0, 1, 0},
	})
	if ok, _ := u.Sat(tr2, 0); ok {
		t.Error("Until should fail when state dips before the event")
	}
	// The event never fires: fail.
	tr3 := mkTrace(t, 1, map[string][]float64{
		"state": {1, 1, 1},
		"event": {0, 0, 0},
	})
	if ok, _ := u.Sat(tr3, 0); ok {
		t.Error("Until without the event should fail")
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"x > 5",
		"x <= 5 && y >= 2",
		"x < 1 || y != 0 || z == 3",
		"!(x > 5)",
		"G[0,100](ipc > 0.4)",
		"F[50,200](miss_rate < 0.1)",
		"(power > 2) -> (perf > 1)",
		"G(x > 0) -> F(y > 0)",
		"(state >= 1) U[0,500] (alert >= 1)",
		"true && x > 0",
		"false || x > 0",
		"G[0,inf](x > -1.5e2)",
	}
	for _, in := range inputs {
		f, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		// Round trip: the rendered form must reparse to the same render.
		r1 := f.String()
		f2, err := Parse(r1)
		if err != nil {
			t.Errorf("reparse of %q (%q): %v", in, r1, err)
			continue
		}
		if r2 := f2.String(); r1 != r2 {
			t.Errorf("round trip unstable: %q -> %q -> %q", in, r1, r2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"x >",
		"> 5",
		"x ! 5",
		"G[5](x > 1)",
		"G[5,1](x > 1)",
		"G[-1,5](x > 1)",
		"(x > 1",
		"x > 1)",
		"x > 1 &&",
		"x = 5",
		"x > 1 @",
		"x > 1 x > 2",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestParseEvaluatesCorrectly(t *testing.T) {
	tr := mkTrace(t, 100, map[string][]float64{
		"ipc":  {0.9, 0.8, 0.2, 0.9, 0.9},
		"temp": {50, 60, 85, 70, 60},
	})
	cases := []struct {
		in   string
		want bool
	}{
		{"G[0,400](ipc > 0.1)", true},
		{"G[0,400](ipc > 0.5)", false},
		{"F[0,400](temp > 80)", true},
		{"F[0,100](temp > 80)", false},
		{"(temp > 80) -> (ipc < 0.5)", true}, // at i=0 antecedent false
		{"G[0,400]((temp > 80) -> (ipc < 0.5))", true},
		{"G[0,400]((temp > 55) -> (ipc < 0.85))", false}, // fails at i=3: temp 70, ipc 0.9
		{"(ipc >= 0.5) U (temp >= 85)", false},           // ipc dips at the alert instant? event at idx2 where prefix ipc 0.9,0.8 ≥0.5 → actually true
	}
	// Fix the last expectation by direct reasoning: B at idx 2 (temp 85 ≥ 85),
	// A must hold at idx 0,1 (ipc 0.9, 0.8 ≥ 0.5) → Until holds.
	cases[len(cases)-1].want = true
	for _, c := range cases {
		f, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		got, err := f.Sat(tr, 0)
		if err != nil {
			t.Fatalf("Sat(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("%q = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestUnknownSignalErrors(t *testing.T) {
	tr := mkTrace(t, 1, map[string][]float64{"x": {1, 2}})
	formulas := []Formula{
		Atom{"nope", GT, 0},
		Not{F: Atom{"nope", GT, 0}},
		And{Fs: []Formula{Atom{"x", GT, 0}, Atom{"nope", GT, 0}}},
		Or{Fs: []Formula{Atom{"nope", GT, 0}}},
		Implies{A: Atom{"nope", GT, 0}, B: Const(true)},
		Globally{I: Whole, F: Atom{"nope", GT, 0}},
		Eventually{I: Whole, F: Atom{"nope", GT, 0}},
		Until{I: Whole, A: Atom{"x", GT, 0}, B: Atom{"nope", GT, 0}},
	}
	for _, f := range formulas {
		if _, err := f.Sat(tr, 0); err == nil {
			t.Errorf("%v should error on unknown signal", f)
		}
	}
}

func TestStringRendering(t *testing.T) {
	f := mustParse(t, "G[0,100](x > 1) && F[0,50](y < 2)")
	s := f.String()
	for _, frag := range []string{"G[0,100]", "F[0,50]", "x > 1", "y < 2", "&&"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendering %q missing %q", s, frag)
		}
	}
	// Unbounded interval renders empty.
	if got := (Globally{I: Whole, F: Const(true)}).String(); got != "G(true)" {
		t.Errorf("unbounded G renders as %q", got)
	}
}

func TestNextOperator(t *testing.T) {
	tr := mkTrace(t, 1, map[string][]float64{"x": {1, 5, 2}})
	x5 := Next{F: Atom{"x", GT, 4}}
	if ok, _ := x5.Sat(tr, 0); !ok {
		t.Error("X(x>4) at 0 should see x=5 at 1")
	}
	if ok, _ := x5.Sat(tr, 1); ok {
		t.Error("X(x>4) at 1 should see x=2 at 2")
	}
	// Final sample has no successor: false.
	if ok, _ := x5.Sat(tr, 2); ok {
		t.Error("X at the last sample should be false")
	}
}

func TestReleaseOperator(t *testing.T) {
	// B holds until A releases it at index 2; B may drop afterwards.
	tr := mkTrace(t, 1, map[string][]float64{
		"a": {0, 0, 1, 0, 0},
		"b": {1, 1, 1, 0, 0},
	})
	rel := Release{I: Whole, A: Atom{"a", GE, 1}, B: Atom{"b", GE, 1}}
	if ok, err := rel.Sat(tr, 0); err != nil || !ok {
		t.Errorf("release at overlap should hold: %v %v", ok, err)
	}
	// B drops before A ever holds: violated.
	tr2 := mkTrace(t, 1, map[string][]float64{
		"a": {0, 0, 0, 1, 0},
		"b": {1, 0, 1, 1, 0},
	})
	if ok, _ := rel.Sat(tr2, 0); ok {
		t.Error("B dropping before the release should violate")
	}
	// A never holds but B holds forever: satisfied (the G case).
	tr3 := mkTrace(t, 1, map[string][]float64{
		"a": {0, 0, 0},
		"b": {1, 1, 1},
	})
	if ok, _ := rel.Sat(tr3, 0); !ok {
		t.Error("B holding throughout should satisfy release")
	}
}

// Duality: A R B ⟺ !(!A U !B) on random traces.
func TestReleaseUntilDualityProperty(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		vals := func(off int) []float64 {
			out := make([]float64, 12)
			s := uint64(seed*31 + off)
			for i := range out {
				s = s*6364136223846793005 + 1442695040888963407
				out[i] = float64((s >> 33) & 1)
			}
			return out
		}
		tr := mkTrace(t, 1, map[string][]float64{"a": vals(1), "b": vals(2)})
		rel := Release{I: Interval{0, 8}, A: Atom{"a", GE, 1}, B: Atom{"b", GE, 1}}
		dual := Not{F: Until{I: Interval{0, 8}, A: Not{F: Atom{"a", GE, 1}}, B: Not{F: Atom{"b", GE, 1}}}}
		for i := 0; i < tr.Len(); i++ {
			got, err := rel.Sat(tr, i)
			if err != nil {
				t.Fatal(err)
			}
			want, err := dual.Sat(tr, i)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d idx %d: release %v, dual %v (a=%v b=%v)",
					seed, i, got, want, vals(1), vals(2))
			}
		}
	}
}

func TestParseNextAndRelease(t *testing.T) {
	tr := mkTrace(t, 1, map[string][]float64{
		"a": {0, 1, 0},
		"b": {1, 1, 0},
	})
	f := mustParse(t, "X(a >= 1)")
	if ok, _ := f.Sat(tr, 0); !ok {
		t.Error("parsed X should hold at 0")
	}
	r := mustParse(t, "(a >= 1) R (b >= 1)")
	if ok, err := r.Sat(tr, 0); err != nil || !ok {
		t.Errorf("parsed R should hold: %v %v", ok, err)
	}
	// Round trip.
	for _, in := range []string{"X(a >= 1)", "(a >= 1) R[0,5] (b >= 1)"} {
		f := mustParse(t, in)
		if _, err := Parse(f.String()); err != nil {
			t.Errorf("round trip of %q (%q): %v", in, f.String(), err)
		}
	}
}
