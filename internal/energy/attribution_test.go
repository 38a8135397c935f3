package energy

import (
	"math"
	"testing"
)

// TestAttributionSplit checks the arithmetic on a hand-computable trace:
// one 10 W component, two overlapping accounts, one direct charge.
func TestAttributionSplit(t *testing.T) {
	m := NewMeter()
	m.Register("dev", 10)
	at := NewAttributor(m)

	a := at.Begin(0)
	b := at.Begin(5) // settles [0,5): 50 J residual, all to a
	a.ChargeJoules(5)
	at.End(a, 10) // settles [5,10): 50 J total, 5 direct, 45 shared halfway
	at.End(b, 20) // settles [10,20): 100 J residual, all to b

	if got := float64(a.Attributed()); math.Abs(got-77.5) > 1e-12 {
		t.Fatalf("a attributed %v, want 77.5 (5 direct + 50 + 22.5 shared)", got)
	}
	if got := float64(b.Attributed()); math.Abs(got-122.5) > 1e-12 {
		t.Fatalf("b attributed %v, want 122.5 (22.5 + 100 shared)", got)
	}
	sum := float64(a.Attributed() + b.Attributed())
	total := float64(m.TotalEnergy(20))
	if math.Abs(sum-total) > 1e-12 {
		t.Fatalf("sum %v != meter %v", sum, total)
	}
	if at.Unattributed() != 0 {
		t.Fatalf("unattributed = %v with wall-to-wall accounts", at.Unattributed())
	}
	if begun, ended := a.Window(); begun != 0 || ended != 10 {
		t.Fatalf("a window = [%v, %v]", begun, ended)
	}
}

// TestAttributionIdleGapsUnattributed: energy drawn while no account is
// open lands in the unattributed bucket, and the invariant
// Σ attributed + unattributed = meter still holds.
func TestAttributionIdleGapsUnattributed(t *testing.T) {
	m := NewMeter()
	m.Register("dev", 4)
	at := NewAttributor(m)

	a := at.Begin(10) // [0,10): 40 J idle, unattributed
	at.End(a, 15)
	b := at.Begin(25) // [15,25): 40 J idle, unattributed
	at.End(b, 30)

	if got := float64(at.Unattributed()); math.Abs(got-80) > 1e-12 {
		t.Fatalf("unattributed = %v, want 80", got)
	}
	sum := float64(a.Attributed()+b.Attributed()) + float64(at.Unattributed())
	if total := float64(m.TotalEnergy(at.SettledThrough())); math.Abs(sum-total) > 1e-12 {
		t.Fatalf("sum %v != meter %v", sum, total)
	}
}
