package property

import (
	"testing"

	"repro/internal/stl"
)

func trace(t *testing.T, step float64, signals map[string][]float64) *stl.Trace {
	t.Helper()
	tr, err := stl.NewTrace(step)
	if err != nil {
		t.Fatal(err)
	}
	for name, vals := range signals {
		if err := tr.Add(name, vals); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func mustCheck(t *testing.T, p Property, e Execution) bool {
	t.Helper()
	ok, err := p.Check(e)
	if err != nil {
		t.Fatalf("property %q: %v", p.Name, err)
	}
	return ok
}

func TestMetricCompare(t *testing.T) {
	e := Execution{Metrics: map[string]float64{"perf": 1.5, "power": 80}}
	if !mustCheck(t, MetricCompare("perf", stl.GT, 1.0), e) {
		t.Error("perf > 1.0 should hold")
	}
	if mustCheck(t, MetricCompare("power", stl.LT, 50), e) {
		t.Error("power < 50 should fail")
	}
	if !mustCheck(t, MetricCompare("power", stl.LE, 80), e) {
		t.Error("power <= 80 should hold")
	}
	if _, err := MetricCompare("nope", stl.GT, 0).Check(e); err == nil {
		t.Error("missing metric should error")
	}
}

func TestMetricBetween(t *testing.T) {
	e := Execution{Metrics: map[string]float64{"mttf": 5}}
	if !mustCheck(t, MetricBetween("mttf", 10, 1), e) {
		t.Error("10 > 5 > 1 should hold")
	}
	if mustCheck(t, MetricBetween("mttf", 5, 1), e) {
		t.Error("strict upper bound should exclude 5")
	}
	if mustCheck(t, MetricBetween("mttf", 10, 5), e) {
		t.Error("strict lower bound should exclude 5")
	}
}

func TestTimeInState(t *testing.T) {
	e := Execution{Trace: trace(t, 100, map[string][]float64{
		"mispredict": {1, 0, 0, 1, 0, 0, 0, 0, 0, 0}, // 20% active
	})}
	if !mustCheck(t, TimeInState("mispredict", stl.LT, 0.25), e) {
		t.Error("time-in-state 0.2 < 0.25 should hold")
	}
	if mustCheck(t, TimeInState("mispredict", stl.LT, 0.1), e) {
		t.Error("time-in-state 0.2 < 0.1 should fail")
	}
	if _, err := TimeInState("x", stl.LT, 1).Check(Execution{}); err == nil {
		t.Error("missing trace should error")
	}
}

func TestAvgCyclesPerEvent(t *testing.T) {
	// 4 events over a 1000-cycle trace: avg 250 cycles/event.
	e := Execution{Trace: trace(t, 100, map[string][]float64{
		"tlb_miss": {1, 0, 2, 0, 0, 1, 0, 0, 0, 0},
	})}
	if !mustCheck(t, AvgCyclesPerEvent("tlb_miss", stl.GT, 200), e) {
		t.Error("avg 250 > 200 should hold")
	}
	if mustCheck(t, AvgCyclesPerEvent("tlb_miss", stl.GT, 300), e) {
		t.Error("avg 250 > 300 should fail")
	}
	// Zero events: average is +Inf.
	quiet := Execution{Trace: trace(t, 100, map[string][]float64{
		"tlb_miss": {0, 0, 0},
	})}
	if !mustCheck(t, AvgCyclesPerEvent("tlb_miss", stl.GT, 1e12), quiet) {
		t.Error("no events: avg +Inf > anything should hold")
	}
	if mustCheck(t, AvgCyclesPerEvent("tlb_miss", stl.LT, 1e12), quiet) {
		t.Error("no events: avg +Inf < anything should fail")
	}
}

func TestMetricImplication(t *testing.T) {
	e := Execution{Metrics: map[string]float64{"power": 90, "perf": 2.0}}
	if !mustCheck(t, MetricImplication("power", stl.GT, 80, "perf", stl.GT, 1.5), e) {
		t.Error("90>80 -> 2.0>1.5 should hold")
	}
	if mustCheck(t, MetricImplication("power", stl.GT, 80, "perf", stl.GT, 2.5), e) {
		t.Error("90>80 -> 2.0>2.5 should fail")
	}
	if !mustCheck(t, MetricImplication("power", stl.GT, 95, "perf", stl.GT, 99), e) {
		t.Error("false antecedent should make implication hold")
	}
	// Antecedent metric missing: error. Consequent metric missing only
	// matters when the antecedent holds.
	if _, err := MetricImplication("nope", stl.GT, 0, "perf", stl.GT, 0).Check(e); err == nil {
		t.Error("missing antecedent metric should error")
	}
	if _, err := MetricImplication("power", stl.GT, 80, "nope", stl.GT, 0).Check(e); err == nil {
		t.Error("missing consequent metric should error when antecedent holds")
	}
}

func TestEventWithin(t *testing.T) {
	// Errors at t=0 and t=500; second events at t=100 (within 200 of the
	// first) and nothing after the second.
	e := Execution{Trace: trace(t, 100, map[string][]float64{
		"err1": {1, 0, 0, 0, 0, 1, 0, 0, 0, 0},
		"err2": {0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
	})}
	// Fraction followed-within-200 = 1/2.
	if !mustCheck(t, EventWithin("err1", "err2", 200, stl.LE, 0.5), e) {
		t.Error("P[follow] = 0.5 ≤ 0.5 should hold")
	}
	if mustCheck(t, EventWithin("err1", "err2", 200, stl.LT, 0.5), e) {
		t.Error("P[follow] = 0.5 < 0.5 should fail")
	}
	// No event1 occurrences: vacuously true.
	quiet := Execution{Trace: trace(t, 100, map[string][]float64{
		"err1": {0, 0}, "err2": {0, 0},
	})}
	if !mustCheck(t, EventWithin("err1", "err2", 200, stl.LT, 0.01), quiet) {
		t.Error("no occurrences should be vacuously true")
	}
}

func TestStayInStateUntil(t *testing.T) {
	// Sprint entered at t=0; state holds through the alert at t=300.
	good := Execution{Trace: trace(t, 100, map[string][]float64{
		"enter":  {1, 0, 0, 0, 0},
		"sprint": {1, 1, 1, 1, 0},
		"alert":  {0, 0, 0, 1, 0},
	})}
	if !mustCheck(t, StayInStateUntil("enter", "sprint", "alert", stl.GE, 1.0), good) {
		t.Error("staying until alert should make P = 1")
	}
	// Sprint collapses before the alert.
	bad := Execution{Trace: trace(t, 100, map[string][]float64{
		"enter":  {1, 0, 0, 0, 0},
		"sprint": {1, 0, 0, 0, 0},
		"alert":  {0, 0, 0, 1, 0},
	})}
	if mustCheck(t, StayInStateUntil("enter", "sprint", "alert", stl.GE, 1.0), bad) {
		t.Error("early exit should make P = 0")
	}
	if !mustCheck(t, StayInStateUntil("enter", "sprint", "alert", stl.LT, 0.5), bad) {
		t.Error("P = 0 < 0.5 should hold")
	}
	// No entries: vacuous.
	quiet := Execution{Trace: trace(t, 100, map[string][]float64{
		"enter": {0, 0}, "sprint": {0, 0}, "alert": {0, 0},
	})}
	if !mustCheck(t, StayInStateUntil("enter", "sprint", "alert", stl.GE, 1.0), quiet) {
		t.Error("no entries should be vacuously true")
	}
}

func TestConditionalEventProb(t *testing.T) {
	// In-state 50% of the time; event fires in 2 of 5 in-state samples.
	e := Execution{Trace: trace(t, 100, map[string][]float64{
		"handling": {1, 1, 1, 1, 1, 0, 0, 0, 0, 0},
		"new_miss": {1, 0, 1, 0, 0, 1, 1, 1, 0, 0},
	})}
	// Guard: P[state]=0.5 > 0.4 holds; conditional P = 2/5 = 0.4.
	if !mustCheck(t, ConditionalEventProb("new_miss", "handling", stl.GT, 0.4, stl.LT, 0.5), e) {
		t.Error("0.4 < 0.5 should hold")
	}
	if mustCheck(t, ConditionalEventProb("new_miss", "handling", stl.GT, 0.4, stl.LT, 0.3), e) {
		t.Error("0.4 < 0.3 should fail")
	}
	// Guard fails: vacuously true regardless of the event rate.
	if !mustCheck(t, ConditionalEventProb("new_miss", "handling", stl.GT, 0.9, stl.LT, 0.0001), e) {
		t.Error("failed guard should be vacuously true")
	}
}

func TestLatencyImplication(t *testing.T) {
	e := Execution{Metrics: map[string]float64{"lat_r": 120, "lat_s": 250}}
	if !mustCheck(t, LatencyImplication("lat_r", stl.GT, 100, "lat_s", stl.GT, 200), e) {
		t.Error("latency implication should hold")
	}
}

func TestFromSTLAndParse(t *testing.T) {
	e := Execution{Trace: trace(t, 100, map[string][]float64{
		"ipc": {0.9, 0.8, 0.7},
	})}
	p, err := ParseSTL("G[0,200](ipc > 0.5)")
	if err != nil {
		t.Fatal(err)
	}
	if !mustCheck(t, p, e) {
		t.Error("G(ipc > 0.5) should hold")
	}
	p2, err := ParseSTL("F[0,200](ipc > 0.85)")
	if err != nil {
		t.Fatal(err)
	}
	if !mustCheck(t, p2, e) {
		t.Error("F(ipc > 0.85) should hold at i=0")
	}
	if _, err := ParseSTL("not valid ((("); err == nil {
		t.Error("bad STL should error")
	}
	if _, err := p.Check(Execution{}); err == nil {
		t.Error("STL property without a trace should error")
	}
}

func TestOutcomes(t *testing.T) {
	execs := []Execution{
		{Metrics: map[string]float64{"x": 1}},
		{Metrics: map[string]float64{"x": 5}},
		{Metrics: map[string]float64{"x": 10}},
	}
	out, err := MetricCompare("x", stl.GT, 3).Outcomes(execs)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, true}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("outcome[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// Error propagation includes the property name and index.
	execs = append(execs, Execution{Metrics: map[string]float64{"y": 0}})
	if _, err := MetricCompare("x", stl.GT, 3).Outcomes(execs); err == nil {
		t.Error("missing metric in one execution should error")
	}
}

func TestNilEvaluator(t *testing.T) {
	var p Property
	if _, err := p.Check(Execution{}); err == nil {
		t.Error("zero-value Property should error, not panic")
	}
}
