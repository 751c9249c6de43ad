// Package stl implements the fragment of signal temporal logic the paper
// relies on for property specification (Sec. 3.3: "common properties are
// expressible in signal temporal logic (STL)"). It provides:
//
//   - Trace: a uniformly sampled multi-signal execution record, produced by
//     the simulator;
//   - Formula: an STL syntax tree with boolean satisfaction semantics
//     over finite traces;
//   - Parse: a text syntax for formulas, e.g.
//     "G[0,5000](ipc > 0.4) && F[0,1000](l2_mpki < 3)".
//
// Every formula has well-defined semantics over a finite trace, so the SMC
// engine can never "misunderstand" a property: evaluating a formula on a
// trace yields exactly the boolean that eq. 2 of the paper needs.
package stl

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Trace is a finite, uniformly sampled record of named signals from one
// execution. All signals share the same length and sampling step.
type Trace struct {
	step    float64 // time units (e.g. cycles) between consecutive samples
	length  int
	signals map[string][]float64
}

// NewTrace creates an empty trace with the given sampling step (> 0).
func NewTrace(step float64) (*Trace, error) {
	if step <= 0 || math.IsNaN(step) || math.IsInf(step, 0) {
		return nil, fmt.Errorf("stl: invalid sampling step %v", step)
	}
	return &Trace{step: step, signals: make(map[string][]float64)}, nil
}

// Step returns the sampling step in time units.
func (t *Trace) Step() float64 { return t.step }

// Len returns the number of samples per signal (0 for an empty trace).
func (t *Trace) Len() int { return t.length }

// Duration returns the time span covered by the trace.
func (t *Trace) Duration() float64 { return float64(t.length) * t.step }

// Add registers a signal. The first signal fixes the trace length; later
// signals must match it.
func (t *Trace) Add(name string, values []float64) error {
	if name == "" {
		return errors.New("stl: empty signal name")
	}
	if _, dup := t.signals[name]; dup {
		return fmt.Errorf("stl: duplicate signal %q", name)
	}
	if len(t.signals) == 0 {
		t.length = len(values)
	} else if len(values) != t.length {
		return fmt.Errorf("stl: signal %q has %d samples, trace has %d", name, len(values), t.length)
	}
	t.signals[name] = append([]float64(nil), values...)
	return nil
}

// Has reports whether the named signal exists.
func (t *Trace) Has(name string) bool {
	_, ok := t.signals[name]
	return ok
}

// Value returns sample i of the named signal. It returns an error for
// unknown signals or out-of-range indices.
func (t *Trace) Value(name string, i int) (float64, error) {
	sig, ok := t.signals[name]
	if !ok {
		return 0, fmt.Errorf("stl: unknown signal %q", name)
	}
	if i < 0 || i >= len(sig) {
		return 0, fmt.Errorf("stl: index %d out of range for signal %q (len %d)", i, name, len(sig))
	}
	return sig[i], nil
}

// Signal returns a copy of the named signal's samples.
func (t *Trace) Signal(name string) ([]float64, error) {
	sig, ok := t.signals[name]
	if !ok {
		return nil, fmt.Errorf("stl: unknown signal %q", name)
	}
	return append([]float64(nil), sig...), nil
}

// Names returns the signal names in sorted order.
func (t *Trace) Names() []string {
	names := make([]string, 0, len(t.signals))
	for n := range t.signals {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// window converts a time interval [lo, hi] relative to sample i into the
// inclusive sample index range [jLo, jHi], clipped to the trace. The
// returned ok is false when the clipped window is empty.
func (t *Trace) window(i int, lo, hi float64) (jLo, jHi int, ok bool) {
	if t.length == 0 {
		return 0, 0, false
	}
	jLo = i + int(math.Ceil(lo/t.step-1e-9))
	if math.IsInf(hi, 1) {
		jHi = t.length - 1
	} else {
		jHi = i + int(math.Floor(hi/t.step+1e-9))
	}
	if jLo < 0 {
		jLo = 0
	}
	if jHi > t.length-1 {
		jHi = t.length - 1
	}
	return jLo, jHi, jLo <= jHi
}
