package stream

import "testing"

func TestEWMASeedsOnFirstObservation(t *testing.T) {
	var e ewma
	if e.seeded || e.value() != 0 {
		t.Fatalf("zero ewma: seeded=%v value=%v", e.seeded, e.value())
	}
	if got := e.observe(0.3, 10); got != 10 {
		t.Errorf("first observation not adopted outright: %v", got)
	}
	got := e.observe(0.5, 20)
	if got != 15 {
		t.Errorf("smoothed value %v, want 15", got)
	}
	if e.value() != 15 {
		t.Errorf("value %v", e.value())
	}
}

func TestStepToTargetHoldsInsideDeadband(t *testing.T) {
	for _, obs := range []float64{0.9, 1.0, 1.1} {
		next, a := stepToTarget(100, obs, 1.0, 0.15, 1, 1000)
		if next != 100 || a != ActionHold {
			t.Errorf("obs %v: next=%d action=%v, want hold at 100", obs, next, a)
		}
	}
}

func TestStepToTargetDirections(t *testing.T) {
	// Observation far above target shrinks, clamped to half per step.
	next, a := stepToTarget(100, 10.0, 1.0, 0.15, 1, 1000)
	if a != ActionShrink || next != 50 {
		t.Errorf("shrink: next=%d action=%v, want 50/shrink", next, a)
	}
	// Observation far below target grows, clamped to 1.5x per step.
	next, a = stepToTarget(100, 0.1, 1.0, 0.15, 1, 1000)
	if a != ActionGrow || next != 150 {
		t.Errorf("grow: next=%d action=%v, want 150/grow", next, a)
	}
}

func TestStepToTargetProgressGuarantee(t *testing.T) {
	// A ratio step on a tiny knob truncates to the same value; the law must
	// still move by one.
	next, a := stepToTarget(1, 0.5, 1.0, 0.15, 1, 1000)
	if next != 2 || a != ActionGrow {
		t.Errorf("grow from 1: next=%d action=%v", next, a)
	}
	next, a = stepToTarget(2, 1.3, 1.0, 0.15, 1, 1000)
	if next != 1 || a != ActionShrink {
		t.Errorf("shrink from 2: next=%d action=%v", next, a)
	}
}

func TestStepToTargetPinnedAtClampReportsHold(t *testing.T) {
	next, a := stepToTarget(1000, 0.1, 1.0, 0.15, 1, 1000)
	if next != 1000 || a != ActionHold {
		t.Errorf("pinned at max: next=%d action=%v", next, a)
	}
	next, a = stepToTarget(1, 10.0, 1.0, 0.15, 1, 1000)
	if next != 1 || a != ActionHold {
		t.Errorf("pinned at min: next=%d action=%v", next, a)
	}
}

func TestActionString(t *testing.T) {
	if ActionHold.String() != "hold" || ActionGrow.String() != "grow" || ActionShrink.String() != "shrink" {
		t.Error("action labels changed")
	}
}
