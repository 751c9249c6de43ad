package sim

import "repro/internal/stl"

// tracer samples machine state every SampleInterval cycles into the trace
// signals temporal properties are evaluated on:
//
//	ipc            aggregate instructions per cycle over the interval
//	l1d_mpki       interval L1D misses per 1k interval instructions
//	l2_mpki        interval L2 misses per 1k interval instructions
//	tlb_miss       TLB misses in the interval
//	mispredict     fraction of interval cycles lost to branch mispredicts
//	temp           thermal model temperature
//	sprint         1 while the chip is in the sprint state
//	sprint_enter   1 in intervals where a sprint began
//	thermal_alert  1 in intervals where a thermal alert fired
type tracer struct {
	interval uint64
	m        *machine
	nextAt   uint64

	// Counter snapshots at the previous sample boundary.
	lastInstr    uint64
	lastL1DMiss  uint64
	lastL2Miss   uint64
	lastTLBMiss  uint64
	lastMispCost uint64
	lastBusyCy   uint64

	signals map[string][]float64
}

var traceSignalNames = []string{
	"ipc", "l1d_mpki", "l2_mpki", "tlb_miss", "mispredict",
	"temp", "sprint", "sprint_enter", "thermal_alert",
}

// init resets the tracer for a new run, keeping the signal buffers of a
// reused tracer (truncated to zero length) so sampling stops allocating
// after the first run. Result traces are safe: stl.Trace.Add copies the
// values out of these buffers.
func (t *tracer) init(interval uint64, m *machine) {
	sig := t.signals
	if sig == nil {
		sig = make(map[string][]float64, len(traceSignalNames))
	}
	for _, n := range traceSignalNames {
		sig[n] = sig[n][:0]
	}
	*t = tracer{interval: interval, m: m, nextAt: interval, signals: sig}
}

func (t *tracer) l1dMisses() uint64 {
	var total uint64
	for _, c := range t.m.l1d {
		total += c.Stats().Misses
	}
	return total
}

func (t *tracer) tlbMisses() uint64 {
	var total uint64
	for _, c := range t.m.tlb {
		total += c.Stats().Misses
	}
	return total
}

// advance emits samples for every interval boundary crossed up to now.
func (t *tracer) advance(now uint64) {
	for t.nextAt <= now {
		t.sample()
		t.nextAt += t.interval
	}
}

// finish emits a final sample for a partial trailing interval so short
// runs still produce a non-empty trace.
func (t *tracer) finish(now uint64) {
	if len(t.signals["ipc"]) == 0 || now+t.interval/2 > t.nextAt {
		t.sample()
	}
}

func (t *tracer) sample() {
	m := t.m
	instr := m.instructions - t.lastInstr
	l1dm := t.l1dMisses() - t.lastL1DMiss
	l2m := m.l2.Stats().Misses - t.lastL2Miss
	tlbm := t.tlbMisses() - t.lastTLBMiss
	misp := m.mispredictCost - t.lastMispCost
	busy := m.busyCycles - t.lastBusyCy

	t.lastInstr = m.instructions
	t.lastL1DMiss += l1dm
	t.lastL2Miss += l2m
	t.lastTLBMiss += tlbm
	t.lastMispCost = m.mispredictCost
	t.lastBusyCy = m.busyCycles

	cycles := float64(t.interval)
	activity := float64(busy) / (cycles * float64(m.cfg.Cores))
	m.thermal.update(activity)

	push := func(name string, v float64) { t.signals[name] = append(t.signals[name], v) }
	push("ipc", float64(instr)/cycles)
	if instr > 0 {
		push("l1d_mpki", float64(l1dm)/float64(instr)*1000)
		push("l2_mpki", float64(l2m)/float64(instr)*1000)
	} else {
		push("l1d_mpki", 0)
		push("l2_mpki", 0)
	}
	push("tlb_miss", float64(tlbm))
	push("mispredict", float64(misp)/(cycles*float64(m.cfg.Cores)))
	push("temp", m.thermal.temp)
	push("sprint", boolSignal(m.thermal.sprinting))
	push("sprint_enter", boolSignal(m.thermal.enteredSprint))
	push("thermal_alert", boolSignal(m.thermal.alertFired))
}

func boolSignal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// trace assembles the collected samples into an stl.Trace.
func (t *tracer) trace() (*stl.Trace, error) {
	tr, err := stl.NewTrace(float64(t.interval))
	if err != nil {
		return nil, err
	}
	for _, name := range traceSignalNames {
		if err := tr.Add(name, t.signals[name]); err != nil {
			return nil, err
		}
	}
	return tr, nil
}
