package stl

import "testing"

// FuzzParse hardens the STL parser: arbitrary input must never panic, and
// anything that parses must render to a string that reparses to the same
// rendering (print/parse stability).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"x > 5",
		"G[0,100](ipc > 0.4) && F[0,50](y < 2)",
		"(a >= 1) U[0,500] (b >= 1)",
		"(a >= 1) R (b >= 1)",
		"X(a != 0) -> !(b == 3)",
		"true || false",
		"G[0,inf](x > -1.5e2) # comment",
		"eventually always x<1",
		"(((((x>1)))))",
		"a.b_c >= 2.5e-3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		formula, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		first := formula.String()
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("rendered formula does not reparse: %q -> %q: %v", input, first, err)
		}
		if second := again.String(); second != first {
			t.Fatalf("print/parse unstable: %q -> %q -> %q", input, first, second)
		}
	})
}

// FuzzEval ensures evaluation over a fixed trace never panics for any
// parsed formula, even when it references unknown signals (errors are the
// contract, panics are not).
func FuzzEval(f *testing.F) {
	f.Add("x > 1 && y < 2")
	f.Add("G[0,30](x > 0) U (y >= 1)")
	f.Add("X X X x == 0")
	f.Fuzz(func(t *testing.T, input string) {
		formula, err := Parse(input)
		if err != nil {
			return
		}
		tr, err := NewTrace(10)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Add("x", []float64{0, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tr.Len(); i++ {
			_, _ = formula.Sat(tr, i) // may error on unknown signals
		}
	})
}
