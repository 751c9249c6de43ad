package sim

// thermalModel is the computational-sprinting state machine referenced by
// Table 1 template 8 ("if we enter sprinting state, probability of staying
// there until thermal alert"): a chip-level temperature integrator driven
// by compute activity, a sprint mode entered when cool that boosts
// frequency, and a thermal alert that ends the sprint and throttles until
// the chip cools back down.
//
// The model is updated at trace-sample granularity by the tracer, which
// also exports its state as the trace signals "temp", "sprint",
// "sprint_enter" and "thermal_alert".
type thermalModel struct {
	cfg ThermalConfig

	temp      float64
	sprinting bool
	throttled bool

	// Per-interval event flags, consumed by the tracer.
	enteredSprint bool
	alertFired    bool

	sprintEntries uint64
	alerts        uint64
}

// init resets the model for a new run, as in a freshly built one.
func (t *thermalModel) init(cfg ThermalConfig, initTemp float64) {
	if initTemp < cfg.Ambient {
		initTemp = cfg.Ambient
	}
	*t = thermalModel{cfg: cfg, temp: initTemp}
}

// speed returns the current frequency multiplier applied to compute bursts.
func (t *thermalModel) speed() float64 {
	switch {
	case !t.cfg.Enabled:
		return 1
	case t.sprinting:
		return t.cfg.SprintBoost
	case t.throttled:
		return t.cfg.ThrottleDip
	default:
		return 1
	}
}

// update advances one sample interval with the given activity in [0, 1]
// (fraction of core-cycles spent computing).
func (t *thermalModel) update(activity float64) {
	if !t.cfg.Enabled {
		return
	}
	if activity < 0 {
		activity = 0
	}
	if activity > 1 {
		activity = 1
	}
	// Power scales superlinearly with frequency (DVFS: P ∝ V²f), so heat
	// follows the square of the current speed multiplier.
	speed := t.speed()
	heat := t.cfg.HeatRate * activity * speed * speed
	t.temp += heat
	t.temp -= t.cfg.CoolRate * (t.temp - t.cfg.Ambient)

	t.enteredSprint = false
	t.alertFired = false
	resume := (t.cfg.SprintEnter + t.cfg.AlertTemp) / 2
	switch {
	case t.temp >= t.cfg.AlertTemp && !t.throttled:
		// Thermal alert: whatever the chip was doing, it throttles; a
		// sprint in progress ends here.
		t.sprinting = false
		t.throttled = true
		t.alertFired = true
		t.alerts++
	case t.throttled && t.temp < resume:
		// Cooled off enough to resume nominal frequency.
		t.throttled = false
	case !t.sprinting && !t.throttled && t.temp < t.cfg.SprintEnter:
		t.sprinting = true
		t.enteredSprint = true
		t.sprintEntries++
	}
}
