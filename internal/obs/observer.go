package obs

import (
	"sync/atomic"
	"time"
)

// Observer bundles the three telemetry backends threaded through the
// pipeline. Any field may be nil; a nil *Observer disables everything.
// Layers accept an *Observer instead of three parameters so wiring a new
// stage is one field.
type Observer struct {
	Tracer   *Tracer
	Metrics  *Registry
	Progress *Progress
	// status is the /statusz source (see SetStatus); holds a func() any.
	status atomic.Value
}

// SetStatus installs the /statusz source: a function returning any
// JSON-marshalable value describing the component's live state (campaign
// progress, chunk tables, worker fleets). The last caller wins; layers
// that own the richest state (the campaign runner, the worker CLI)
// install theirs at startup. Nil-safe.
func (o *Observer) SetStatus(fn func() any) {
	if o == nil || fn == nil {
		return
	}
	o.status.Store(fn)
}

// StatusFn returns the installed /statusz source (nil when absent).
func (o *Observer) StatusFn() func() any {
	if o == nil {
		return nil
	}
	if fn, ok := o.status.Load().(func() any); ok {
		return fn
	}
	return nil
}

// nop-safe accessors: a nil Observer yields nil components, which are
// themselves nil-safe.

// T returns the tracer (nil when disabled).
func (o *Observer) T() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// M returns the metrics registry (nil when disabled).
func (o *Observer) M() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// P returns the progress reporter (nil when disabled).
func (o *Observer) P() *Progress {
	if o == nil {
		return nil
	}
	return o.Progress
}

// Logf forwards a milestone line to the progress reporter.
func (o *Observer) Logf(format string, args ...any) {
	o.P().Logf(format, args...)
}

// RunStarted records one simulation run entering flight.
func (o *Observer) RunStarted() {
	if o == nil {
		return
	}
	o.M().Counter(MetricRunsStarted).Inc()
	o.M().Gauge(MetricRunsInflight).Add(1)
}

// RunDone records one completed simulation run: counters, the duration
// histogram, a progress tick, and a "sim.run" span with the run's
// identity (benchmark, seed, cycles) and wall time. start is when the run
// began; pass the zero time to let the span back-date from elapsed.
func (o *Observer) RunDone(benchmark string, seed, cycles uint64, err error, start time.Time, elapsed time.Duration) {
	if o == nil {
		return
	}
	if err != nil {
		o.M().Counter(MetricRunsFailed).Inc()
	} else {
		o.M().Counter(MetricRunsCompleted).Inc()
		o.M().CounterL(MetricBenchmarkRuns, Labels{"benchmark": benchmark}).Inc()
	}
	o.M().Gauge(MetricRunsInflight).Sub(1)
	o.M().Histogram(MetricRunDuration).Observe(elapsed.Seconds())
	o.P().Done(1)
	if t := o.T(); t != nil {
		attrs := []Attr{Str("benchmark", benchmark), U64("seed", seed), U64("cycles", cycles)}
		if err != nil {
			attrs = append(attrs, Str("error", err.Error()))
		}
		if start.IsZero() {
			start = time.Now().Add(-elapsed)
		}
		t.Emit("sim.run", start, elapsed, attrs...)
	}
}

// CIBuilt records one confidence-interval construction (any method) with
// its width; err marks a failed/abstained construction.
func (o *Observer) CIBuilt(method string, width float64, err error) {
	if o == nil {
		return
	}
	if err != nil {
		o.M().Counter(MetricCIFailed).Inc()
		return
	}
	o.M().Counter(MetricCIBuilt).Inc()
	o.M().Histogram(MetricCIWidth).Observe(width)
}

// ConvergenceRound records one adaptive refinement round of the
// AnalyzeToWidthWith loop: a "ci.round" trace event plus the labeled
// spa_ci_convergence gauges (current width, runs so far, target width),
// so the stopping rule's trajectory is visible at /metrics instead of
// being a black box.
func (o *Observer) ConvergenceRound(entry, metric, method string, runs int, width, target float64) {
	if o == nil {
		return
	}
	o.M().Counter(MetricAdaptiveRound).Inc()
	l := Labels{"entry": entry, "metric": metric, "method": method}
	o.M().GaugeL(MetricCIConvergence, l).Set(width)
	o.M().GaugeL(MetricCIConvergenceRuns, l).Set(float64(runs))
	o.M().GaugeL(MetricCIConvergenceTarget, l).Set(target)
	o.T().Event("ci.round", Str("entry", entry), Str("metric", metric),
		Str("method", method), Int("runs", runs), F64("width", width), F64("target", target))
}
