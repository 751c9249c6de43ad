package stl

import (
	"fmt"
	"math"
	"strings"
)

// Formula is an STL formula evaluable over finite traces.
//
// Finite-trace semantics: temporal windows are clipped to the trace. A
// Globally over an empty clipped window is vacuously true; an Eventually
// over an empty window is false; an Until whose window is empty is false.
// This "weak" convention matches evaluating properties on complete
// execution records, where nothing exists beyond the final sample.
type Formula interface {
	// Sat reports boolean satisfaction at sample index i.
	Sat(t *Trace, i int) (bool, error)
	// String renders the formula in the concrete syntax accepted by Parse.
	String() string
}

// CmpOp is a comparison operator in an atomic predicate.
type CmpOp int

// Comparison operators.
const (
	LT CmpOp = iota
	LE
	GT
	GE
	EQ
	NE
)

// String implements fmt.Stringer.
func (op CmpOp) String() string {
	switch op {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return "!="
	}
}

func (op CmpOp) eval(v, c float64) bool {
	switch op {
	case LT:
		return v < c
	case LE:
		return v <= c
	case GT:
		return v > c
	case GE:
		return v >= c
	case EQ:
		return v == c
	default:
		return v != c
	}
}

// Atom is the predicate "signal ⋈ threshold".
type Atom struct {
	Signal    string
	Op        CmpOp
	Threshold float64
}

// Sat implements Formula.
func (a Atom) Sat(t *Trace, i int) (bool, error) {
	v, err := t.Value(a.Signal, i)
	if err != nil {
		return false, err
	}
	return a.Op.eval(v, a.Threshold), nil
}

// String implements Formula.
func (a Atom) String() string {
	return fmt.Sprintf("%s %s %g", a.Signal, a.Op, a.Threshold)
}

// Const is a boolean literal.
type Const bool

// Sat implements Formula.
func (c Const) Sat(*Trace, int) (bool, error) { return bool(c), nil }

// String implements Formula.
func (c Const) String() string {
	if c {
		return "true"
	}
	return "false"
}

// Not negates a formula.
type Not struct{ F Formula }

// Sat implements Formula.
func (n Not) Sat(t *Trace, i int) (bool, error) {
	v, err := n.F.Sat(t, i)
	return !v, err
}

// String implements Formula.
func (n Not) String() string { return "!(" + n.F.String() + ")" }

// And is the conjunction of its operands.
type And struct{ Fs []Formula }

// Sat implements Formula.
func (a And) Sat(t *Trace, i int) (bool, error) {
	for _, f := range a.Fs {
		ok, err := f.Sat(t, i)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// String implements Formula.
func (a And) String() string { return joinFormulas(a.Fs, " && ") }

// Or is the disjunction of its operands.
type Or struct{ Fs []Formula }

// Sat implements Formula.
func (o Or) Sat(t *Trace, i int) (bool, error) {
	for _, f := range o.Fs {
		ok, err := f.Sat(t, i)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// String implements Formula.
func (o Or) String() string { return joinFormulas(o.Fs, " || ") }

// Implies is material implication A → B.
type Implies struct{ A, B Formula }

// Sat implements Formula.
func (im Implies) Sat(t *Trace, i int) (bool, error) {
	a, err := im.A.Sat(t, i)
	if err != nil {
		return false, err
	}
	if !a {
		return true, nil
	}
	return im.B.Sat(t, i)
}

// String implements Formula.
func (im Implies) String() string {
	return "(" + im.A.String() + ") -> (" + im.B.String() + ")"
}

// Interval is a closed time window [Lo, Hi] in trace time units, relative
// to the evaluation instant. Hi = +Inf means "until the end of the trace".
type Interval struct{ Lo, Hi float64 }

// Whole is the unbounded interval covering the rest of the trace.
var Whole = Interval{Lo: 0, Hi: math.Inf(1)}

func (iv Interval) String() string {
	if math.IsInf(iv.Hi, 1) && iv.Lo == 0 {
		return ""
	}
	return fmt.Sprintf("[%g,%g]", iv.Lo, iv.Hi)
}

func (iv Interval) valid() bool {
	return !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi) && iv.Lo >= 0 && iv.Hi >= iv.Lo
}

// Globally is G_[Lo,Hi] F: the child must hold at every sample of the
// window. An empty clipped window is vacuously true.
type Globally struct {
	I Interval
	F Formula
}

// Sat implements Formula.
func (g Globally) Sat(t *Trace, i int) (bool, error) {
	jLo, jHi, ok := t.window(i, g.I.Lo, g.I.Hi)
	if !ok {
		return true, nil
	}
	for j := jLo; j <= jHi; j++ {
		v, err := g.F.Sat(t, j)
		if err != nil {
			return false, err
		}
		if !v {
			return false, nil
		}
	}
	return true, nil
}

// String implements Formula.
func (g Globally) String() string { return "G" + g.I.String() + "(" + g.F.String() + ")" }

// Eventually is F_[Lo,Hi] F: the child must hold at some sample of the
// window. An empty clipped window is false.
type Eventually struct {
	I Interval
	F Formula
}

// Sat implements Formula.
func (e Eventually) Sat(t *Trace, i int) (bool, error) {
	jLo, jHi, ok := t.window(i, e.I.Lo, e.I.Hi)
	if !ok {
		return false, nil
	}
	for j := jLo; j <= jHi; j++ {
		v, err := e.F.Sat(t, j)
		if err != nil {
			return false, err
		}
		if v {
			return true, nil
		}
	}
	return false, nil
}

// String implements Formula.
func (e Eventually) String() string { return "F" + e.I.String() + "(" + e.F.String() + ")" }

// Until is A U_[Lo,Hi] B: B must hold at some window sample j, with A
// holding at every sample from the evaluation instant up to (but not
// including) j.
type Until struct {
	I    Interval
	A, B Formula
}

// Sat implements Formula.
func (u Until) Sat(t *Trace, i int) (bool, error) {
	jLo, jHi, ok := t.window(i, u.I.Lo, u.I.Hi)
	if !ok {
		return false, nil
	}
	for j := jLo; j <= jHi; j++ {
		b, err := u.B.Sat(t, j)
		if err != nil {
			return false, err
		}
		if b {
			holds := true
			for k := i; k < j; k++ {
				a, err := u.A.Sat(t, k)
				if err != nil {
					return false, err
				}
				if !a {
					holds = false
					break
				}
			}
			if holds {
				return true, nil
			}
		}
	}
	return false, nil
}

// String implements Formula.
func (u Until) String() string {
	return "(" + u.A.String() + ") U" + u.I.String() + " (" + u.B.String() + ")"
}

func joinFormulas(fs []Formula, sep string) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = "(" + f.String() + ")"
	}
	return strings.Join(parts, sep)
}

// Next is X F: the child must hold at the next sample. On the final sample
// (no successor) it is false, consistent with the finite-trace convention
// that nothing exists beyond the last sample.
type Next struct{ F Formula }

// Sat implements Formula.
func (x Next) Sat(t *Trace, i int) (bool, error) {
	if i+1 >= t.Len() {
		return false, nil
	}
	return x.F.Sat(t, i+1)
}

// String implements Formula.
func (x Next) String() string { return "X(" + x.F.String() + ")" }

// Release is A R_[Lo,Hi] B, the dual of Until: B must hold at every window
// sample up to and including the first sample where A holds; if A never
// holds in the window, B must hold throughout it. It is implemented via
// the duality A R B = !(!A U !B) evaluated directly for clarity.
type Release struct {
	I    Interval
	A, B Formula
}

// Sat implements Formula.
func (rl Release) Sat(t *Trace, i int) (bool, error) {
	jLo, jHi, ok := t.window(i, rl.I.Lo, rl.I.Hi)
	if !ok {
		return true, nil // vacuous like Globally
	}
	for j := jLo; j <= jHi; j++ {
		b, err := rl.B.Sat(t, j)
		if err != nil {
			return false, err
		}
		if !b {
			// B failed at j: acceptable only if A held strictly earlier
			// within the window (releasing the obligation).
			for k := jLo; k < j; k++ {
				a, err := rl.A.Sat(t, k)
				if err != nil {
					return false, err
				}
				if a {
					return true, nil
				}
			}
			return false, nil
		}
		a, err := rl.A.Sat(t, j)
		if err != nil {
			return false, err
		}
		if a {
			return true, nil // released at j with B still true
		}
	}
	return true, nil // B held throughout the window
}

// String implements Formula.
func (rl Release) String() string {
	return "(" + rl.A.String() + ") R" + rl.I.String() + " (" + rl.B.String() + ")"
}
