package stream

// This file holds the controller's control-law primitives: exponentially
// weighted averages, a hysteresis deadband, and a clamped multiplicative
// step. Everything here is pure — no clock reads, no goroutines — so a
// decision is a deterministic function of the observations fed in, and unit
// tests can drive the loop without sleeping.

// Action classifies one controller decision.
type Action uint8

// Controller decisions: hold the current batch size, grow it, or shrink it.
const (
	ActionHold Action = iota
	ActionGrow
	ActionShrink
)

// String returns the metric-label spelling of the action.
func (a Action) String() string {
	switch a {
	case ActionGrow:
		return "grow"
	case ActionShrink:
		return "shrink"
	default:
		return "hold"
	}
}

// ewma is an exponentially weighted moving average. The zero value is
// unseeded: the first observation becomes the average outright, so start-up
// transients are not dragged toward zero.
type ewma struct {
	v      float64
	seeded bool
}

// observe folds one sample in with smoothing factor alpha in (0, 1] and
// returns the updated average.
func (e *ewma) observe(alpha, x float64) float64 {
	if !e.seeded {
		e.v = x
		e.seeded = true
		return e.v
	}
	e.v += alpha * (x - e.v)
	return e.v
}

// value returns the current average (0 before any observation).
func (e *ewma) value() float64 { return e.v }

// stepToTarget is the damped multiplicative-adjust law: when the smoothed
// observation sits outside the fractional deadband around target, cur is
// scaled by target/smoothed — clamped to [1/2, 3/2] per step so one outlier
// cannot collapse or explode the knob — then clamped to [min, max]. A step
// is guaranteed to make progress (integer truncation cannot stall it), and
// a step pinned at a clamp reports ActionHold. Grow means the observation is
// below target (the knob can afford to increase); shrink means above.
func stepToTarget(cur int, smoothed, target, deadband float64, min, max int) (int, Action) {
	action := ActionHold
	switch {
	case smoothed > target*(1+deadband):
		action = ActionShrink
	case smoothed < target*(1-deadband):
		action = ActionGrow
	}
	if action == ActionHold {
		return cur, ActionHold
	}
	ratio := target / smoothed
	if ratio < 0.5 {
		ratio = 0.5
	}
	if ratio > 1.5 {
		ratio = 1.5
	}
	next := int(float64(cur) * ratio)
	// Guarantee progress: a ratio step on a tiny knob can truncate to the
	// same value and stall short of the target.
	if action == ActionGrow && next <= cur {
		next = cur + 1
	}
	if action == ActionShrink && next >= cur {
		next = cur - 1
	}
	if next < min {
		next = min
	}
	if next > max {
		next = max
	}
	if next == cur {
		action = ActionHold // pinned at a clamp
	}
	return next, action
}
