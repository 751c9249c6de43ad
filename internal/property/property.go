// Package property implements the paper's Table 1: the nine property
// templates computer architects evaluate with SMC. Each template constructor
// returns a Property — a named boolean predicate over one execution — whose
// outcomes feed the SMC engine (paper eq. 2). Templates 1–5 and 7 operate on
// scalar end-of-run metrics; templates 3, 4, 6, 8 and 9 operate on the
// execution's sampled trace. FromSTL adapts any internal/stl formula.
//
// The paper notes (Sec. 3.1) that every experiment in ISCA 2022 maps onto
// templates 1–4; the richer templates are the headroom SMC offers.
package property

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stl"
)

// Execution is one run of a system: its end-of-run scalar metrics plus an
// optional sampled trace for temporal properties.
type Execution struct {
	Metrics map[string]float64
	Trace   *stl.Trace
}

// Metric returns a scalar metric by name.
func (e Execution) Metric(name string) (float64, error) {
	v, ok := e.Metrics[name]
	if !ok {
		return 0, fmt.Errorf("property: execution has no metric %q", name)
	}
	return v, nil
}

// Property is a named boolean predicate over one execution.
type Property struct {
	Name string
	Eval func(Execution) (bool, error)
}

// Check evaluates the property on an execution.
func (p Property) Check(e Execution) (bool, error) {
	if p.Eval == nil {
		return false, errors.New("property: nil evaluator")
	}
	return p.Eval(e)
}

// Outcomes evaluates the property over a slice of executions, producing the
// boolean sample the SMC engine consumes.
func (p Property) Outcomes(execs []Execution) ([]bool, error) {
	out := make([]bool, len(execs))
	for i, e := range execs {
		ok, err := p.Check(e)
		if err != nil {
			return nil, fmt.Errorf("property %q on execution %d: %w", p.Name, i, err)
		}
		out[i] = ok
	}
	return out, nil
}

func cmp(op stl.CmpOp, v, thr float64) bool {
	switch op {
	case stl.LT:
		return v < thr
	case stl.LE:
		return v <= thr
	case stl.GT:
		return v > thr
	case stl.GE:
		return v >= thr
	case stl.EQ:
		return v == thr
	default:
		return v != thr
	}
}

// MetricCompare is Table 1 template 1: "metric ≷ threshold"
// (e.g. performance > A, power < B).
func MetricCompare(metric string, op stl.CmpOp, thr float64) Property {
	return Property{
		Name: fmt.Sprintf("%s %v %g", metric, op, thr),
		Eval: func(e Execution) (bool, error) {
			v, err := e.Metric(metric)
			if err != nil {
				return false, err
			}
			return cmp(op, v, thr), nil
		},
	}
}

// MetricBetween is Table 1 template 2: "threshold1 > metric > threshold2"
// (strict on both sides, as written in the paper).
func MetricBetween(metric string, hi, lo float64) Property {
	return Property{
		Name: fmt.Sprintf("%g > %s > %g", hi, metric, lo),
		Eval: func(e Execution) (bool, error) {
			v, err := e.Metric(metric)
			if err != nil {
				return false, err
			}
			return v > lo && v < hi, nil
		},
	}
}

// stateActive treats a trace signal as a boolean state: active when > 0.5.
const stateThreshold = 0.5

// TimeInState is Table 1 template 3: "%time in state ≷ threshold"
// (e.g. %time handling mispredictions < A). The state signal is boolean
// (active when > 0.5); thr is a fraction in [0, 1].
func TimeInState(state string, op stl.CmpOp, thr float64) Property {
	return Property{
		Name: fmt.Sprintf("%%time(%s) %v %g", state, op, thr),
		Eval: func(e Execution) (bool, error) {
			frac, err := fractionActive(e.Trace, state)
			if err != nil {
				return false, err
			}
			return cmp(op, frac, thr), nil
		},
	}
}

func fractionActive(t *stl.Trace, state string) (float64, error) {
	if t == nil {
		return 0, errors.New("property: execution has no trace")
	}
	sig, err := t.Signal(state)
	if err != nil {
		return 0, err
	}
	if len(sig) == 0 {
		return 0, errors.New("property: empty trace")
	}
	active := 0
	for _, v := range sig {
		if v > stateThreshold {
			active++
		}
	}
	return float64(active) / float64(len(sig)), nil
}

// AvgCyclesPerEvent is Table 1 template 4: "avg #cycles/event ≷ threshold"
// (e.g. avg #cycles between TLB misses > A). The event signal carries the
// count of events per sample interval. With zero events the average is +Inf,
// so "avg > A" is true and "avg < A" is false.
func AvgCyclesPerEvent(event string, op stl.CmpOp, thr float64) Property {
	return Property{
		Name: fmt.Sprintf("avgCycles(%s) %v %g", event, op, thr),
		Eval: func(e Execution) (bool, error) {
			if e.Trace == nil {
				return false, errors.New("property: execution has no trace")
			}
			sig, err := e.Trace.Signal(event)
			if err != nil {
				return false, err
			}
			total := 0.0
			for _, v := range sig {
				total += v
			}
			avg := math.Inf(1)
			if total > 0 {
				avg = e.Trace.Duration() / total
			}
			return cmp(op, avg, thr), nil
		},
	}
}

// MetricImplication is Table 1 template 5:
// "metric1 ≷ threshold1 → metric2 ≷ threshold2"
// (e.g. power > A → performance > B).
func MetricImplication(m1 string, op1 stl.CmpOp, t1 float64, m2 string, op2 stl.CmpOp, t2 float64) Property {
	return Property{
		Name: fmt.Sprintf("%s %v %g -> %s %v %g", m1, op1, t1, m2, op2, t2),
		Eval: func(e Execution) (bool, error) {
			v1, err := e.Metric(m1)
			if err != nil {
				return false, err
			}
			if !cmp(op1, v1, t1) {
				return true, nil
			}
			v2, err := e.Metric(m2)
			if err != nil {
				return false, err
			}
			return cmp(op2, v2, t2), nil
		},
	}
}

// EventWithin is Table 1 template 6:
// "event1 occurs → Prob[event2 occurs within W cycles] ≷ threshold"
// (e.g. if an error occurs, the probability of a second error within C
// cycles is < PB). Both events are count signals; the per-execution
// probability is the fraction of event1 occurrences followed by an event2
// within W time units. An execution without any event1 occurrence satisfies
// the property vacuously.
func EventWithin(e1, e2 string, window float64, op stl.CmpOp, thr float64) Property {
	return Property{
		Name: fmt.Sprintf("%s -> P[%s within %g] %v %g", e1, e2, window, op, thr),
		Eval: func(e Execution) (bool, error) {
			frac, n, err := followFraction(e.Trace, e1, e2, window, nil)
			if err != nil {
				return false, err
			}
			if n == 0 {
				return true, nil
			}
			return cmp(op, frac, thr), nil
		},
	}
}

// StayInStateUntil is Table 1 template 8:
// "event1 occurs → Prob[stay in state until event2] ≷ threshold"
// (e.g. if we enter the sprinting state, the probability of staying there
// until the thermal alert is < PA). For each event1 occurrence, the success
// condition is the STL Until: the state holds from the occurrence until an
// event2 fires. Executions without event1 occurrences are vacuously true.
func StayInStateUntil(e1, state, e2 string, op stl.CmpOp, thr float64) Property {
	name := fmt.Sprintf("%s -> P[%s U %s] %v %g", e1, state, e2, op, thr)
	return Property{
		Name: name,
		Eval: func(e Execution) (bool, error) {
			if e.Trace == nil {
				return false, errors.New("property: execution has no trace")
			}
			until := stl.Until{
				I: stl.Whole,
				A: stl.Atom{Signal: state, Op: stl.GT, Threshold: stateThreshold},
				B: stl.Atom{Signal: e2, Op: stl.GT, Threshold: stateThreshold},
			}
			sig, err := e.Trace.Signal(e1)
			if err != nil {
				return false, err
			}
			occ, success := 0, 0
			for i, v := range sig {
				if v > stateThreshold {
					occ++
					ok, err := until.Sat(e.Trace, i)
					if err != nil {
						return false, err
					}
					if ok {
						success++
					}
				}
			}
			if occ == 0 {
				return true, nil
			}
			return cmp(op, float64(success)/float64(occ), thr), nil
		},
	}
}

// ConditionalEventProb is Table 1 template 9:
// "Prob[event when Prob[state] ≷ threshold1] ≷ threshold2"
// (e.g. Prob[new TLB miss when Prob[handling old TLB miss] > PA] < PB).
// The guard compares the execution's fraction of time in the state against
// threshold1; when the guard fails the property holds vacuously. Otherwise
// the conditional frequency of the event in state-active samples is
// compared against threshold2.
func ConditionalEventProb(event, state string, stateOp stl.CmpOp, t1 float64, op stl.CmpOp, t2 float64) Property {
	name := fmt.Sprintf("P[%s | P[%s] %v %g] %v %g", event, state, stateOp, t1, op, t2)
	return Property{
		Name: name,
		Eval: func(e Execution) (bool, error) {
			frac, err := fractionActive(e.Trace, state)
			if err != nil {
				return false, err
			}
			if !cmp(stateOp, frac, t1) {
				return true, nil
			}
			stateSig, err := e.Trace.Signal(state)
			if err != nil {
				return false, err
			}
			eventSig, err := e.Trace.Signal(event)
			if err != nil {
				return false, err
			}
			inState, hits := 0, 0
			for i := range stateSig {
				if stateSig[i] > stateThreshold {
					inState++
					if eventSig[i] > stateThreshold {
						hits++
					}
				}
			}
			if inState == 0 {
				return true, nil
			}
			return cmp(op, float64(hits)/float64(inState), t2), nil
		},
	}
}

// LatencyImplication is Table 1 template 7:
// "event1's latency ≷ threshold1 → event2's latency ≷ threshold2"
// (e.g. service time for request R > A → service time for request S > B).
// Latencies are scalar metrics, so this is template 5 over latency metrics;
// it is kept as its own constructor to mirror the paper's table.
func LatencyImplication(lat1 string, op1 stl.CmpOp, t1 float64, lat2 string, op2 stl.CmpOp, t2 float64) Property {
	p := MetricImplication(lat1, op1, t1, lat2, op2, t2)
	p.Name = "latency: " + p.Name
	return p
}

// followFraction computes, over occurrences of e1 (samples with value >
// stateThreshold), the fraction followed by an occurrence of e2 within the
// given window. The optional filter restricts which e1 samples count.
func followFraction(t *stl.Trace, e1, e2 string, window float64, filter func(i int) bool) (frac float64, occurrences int, err error) {
	if t == nil {
		return 0, 0, errors.New("property: execution has no trace")
	}
	sig1, err := t.Signal(e1)
	if err != nil {
		return 0, 0, err
	}
	within := stl.Eventually{
		I: stl.Interval{Lo: 0, Hi: window},
		F: stl.Atom{Signal: e2, Op: stl.GT, Threshold: stateThreshold},
	}
	success := 0
	for i, v := range sig1 {
		if v <= stateThreshold {
			continue
		}
		if filter != nil && !filter(i) {
			continue
		}
		occurrences++
		ok, err := within.Sat(t, i)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			success++
		}
	}
	if occurrences == 0 {
		return 0, 0, nil
	}
	return float64(success) / float64(occurrences), occurrences, nil
}

// FromSTL adapts an STL formula into a property evaluated at the start of
// the execution's trace (the conventional t = 0 anchoring).
func FromSTL(f stl.Formula) Property {
	return Property{
		Name: f.String(),
		Eval: func(e Execution) (bool, error) {
			if e.Trace == nil {
				return false, errors.New("property: execution has no trace")
			}
			if e.Trace.Len() == 0 {
				return false, errors.New("property: empty trace")
			}
			return f.Sat(e.Trace, 0)
		},
	}
}

// ParseSTL parses an STL formula (internal/stl syntax) into a Property.
func ParseSTL(input string) (Property, error) {
	f, err := stl.Parse(input)
	if err != nil {
		return Property{}, err
	}
	return FromSTL(f), nil
}
