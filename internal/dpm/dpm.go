// Package dpm implements the use case the paper's introduction motivates
// PSMs with: dynamic power management exploration. "The PSMs of IPs
// included in the model of the target SoC are controlled by a power
// manager to allow the exploration of different dynamic power management
// solutions" (Section I, after Benini et al.'s DPM survey).
//
// A Manager walks an IP's activity profile — derived from a generated PSM
// tracking a workload trace — and evaluates shutdown policies against it:
// when the IP has sat in a low-power state longer than a policy's
// timeout, the manager power-gates it, paying a wake-up energy and
// latency penalty on the next active period. The classic results
// reproduce: the oracle policy bounds the achievable savings, and the
// break-even timeout trades residency against wake-up penalties.
package dpm

import (
	"fmt"
	"math"

	"psmkit/internal/powersim"
	"psmkit/internal/psm"
	"psmkit/internal/trace"
)

// Profile is the per-cycle view of a workload the power manager operates
// on: the PSM's power estimate and whether the IP was serving work.
type Profile struct {
	// Power is the PSM-estimated dynamic power per cycle, in watts.
	Power []float64
	// Active marks cycles where the IP is doing work (gating it there
	// would stall the SoC).
	Active []bool
	// SleepPower is the power drawn while gated, in watts.
	SleepPower float64
	// WakeEnergy is the energy cost of a wake-up, in joules.
	WakeEnergy float64
	// WakeLatency is the wake-up delay in cycles.
	WakeLatency int
	// CycleSeconds converts cycles to seconds (1/f).
	CycleSeconds float64
}

// Len returns the profile length in cycles.
func (p *Profile) Len() int { return len(p.Power) }

// BuildProfile derives a Profile by tracking a workload trace with a
// generated PSM. A cycle counts as active when the tracked state's mean
// power exceeds activeFraction of the model's most expensive state — the
// PSM's own power levels classify the IP's modes, which is exactly what
// the paper generates them for.
func BuildProfile(model *psm.Model, ft *trace.Functional, inputCols []int, activeFraction float64) (*Profile, error) {
	if ft.Len() == 0 {
		return nil, fmt.Errorf("dpm: empty workload trace")
	}
	var maxMean float64
	for _, s := range model.States {
		if m := s.Power.Mean(); m > maxMean {
			maxMean = m
		}
	}
	if maxMean <= 0 {
		return nil, fmt.Errorf("dpm: model has no positive-power state")
	}
	threshold := activeFraction * maxMean

	sim := powersim.New(model, inputCols, powersim.DefaultConfig())
	p := &Profile{
		Power:  make([]float64, 0, ft.Len()),
		Active: make([]bool, 0, ft.Len()),
	}
	for t := 0; t < ft.Len(); t++ {
		est := sim.Step(ft.Row(t))
		p.Power = append(p.Power, est)
		active := false
		if id := sim.CurrentState(); id >= 0 {
			active = model.States[id].Power.Mean() > threshold
		} else {
			active = est > threshold
		}
		p.Active = append(p.Active, active)
	}
	return p, nil
}

// Policy decides, given the number of cycles the IP has been continuously
// inactive, whether to gate it.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Shutdown reports whether to gate after idleCycles of inactivity.
	Shutdown(idleCycles int) bool
}

// AlwaysOn never gates: the reference the savings are measured against.
type AlwaysOn struct{}

// Name implements Policy.
func (AlwaysOn) Name() string { return "always-on" }

// Shutdown implements Policy.
func (AlwaysOn) Shutdown(int) bool { return false }

// Timeout gates after N consecutive inactive cycles — the classic
// fixed-timeout DPM policy.
type Timeout struct{ N int }

// Name implements Policy.
func (p Timeout) Name() string { return fmt.Sprintf("timeout-%d", p.N) }

// Shutdown implements Policy.
func (p Timeout) Shutdown(idle int) bool { return idle >= p.N }

// Result is the outcome of evaluating one policy on a profile.
type Result struct {
	Policy string
	// EnergyJ is the total energy over the profile, in joules.
	EnergyJ float64
	// BaselineJ is the always-on energy, for the savings figure.
	BaselineJ float64
	// Savings is 1 - EnergyJ/BaselineJ.
	Savings float64
	// Shutdowns counts gating events; WakeUps equals it when the profile
	// ends awake.
	Shutdowns int
	// AddedLatency is the total wake-up stall in cycles.
	AddedLatency int
	// SleepCycles counts gated cycles.
	SleepCycles int
}

// Evaluate replays the profile under a policy. The manager is reactive:
// it observes inactivity, gates when the policy says so, and wakes —
// paying WakeEnergy and stalling WakeLatency cycles — when the next
// active cycle arrives.
func Evaluate(p *Profile, pol Policy) Result {
	res := Result{Policy: pol.Name()}
	var baseline float64
	for _, w := range p.Power {
		baseline += w * p.CycleSeconds
	}
	res.BaselineJ = baseline

	sleeping := false
	idle := 0
	for t := 0; t < p.Len(); t++ {
		switch {
		case p.Active[t]:
			if sleeping {
				// Wake-up: pay the penalty and stall.
				res.EnergyJ += p.WakeEnergy
				res.AddedLatency += p.WakeLatency
				sleeping = false
			}
			idle = 0
			res.EnergyJ += p.Power[t] * p.CycleSeconds
		case sleeping:
			res.SleepCycles++
			res.EnergyJ += p.SleepPower * p.CycleSeconds
		default:
			idle++
			if pol.Shutdown(idle) {
				sleeping = true
				res.Shutdowns++
				res.SleepCycles++
				res.EnergyJ += p.SleepPower * p.CycleSeconds
			} else {
				res.EnergyJ += p.Power[t] * p.CycleSeconds
			}
		}
	}
	if baseline > 0 {
		res.Savings = 1 - res.EnergyJ/baseline
	}
	return res
}

// Oracle evaluates the clairvoyant policy: it gates an idle period from
// its first cycle exactly when doing so saves energy (the period's idle
// energy exceeds the wake-up cost), giving the upper bound on savings any
// online policy can reach.
func Oracle(p *Profile) Result {
	res := Result{Policy: "oracle"}
	var baseline float64
	for _, w := range p.Power {
		baseline += w * p.CycleSeconds
	}
	res.BaselineJ = baseline

	t := 0
	for t < p.Len() {
		if p.Active[t] {
			res.EnergyJ += p.Power[t] * p.CycleSeconds
			t++
			continue
		}
		// Measure the idle period [t, end).
		end := t
		var idleEnergy float64
		for end < p.Len() && !p.Active[end] {
			idleEnergy += p.Power[end] * p.CycleSeconds
			end++
		}
		n := end - t
		sleepEnergy := float64(n)*p.SleepPower*p.CycleSeconds + p.WakeEnergy
		if end == p.Len() {
			sleepEnergy -= p.WakeEnergy // the profile ends asleep: no wake-up
		}
		if sleepEnergy < idleEnergy {
			res.EnergyJ += sleepEnergy
			res.Shutdowns++
			res.SleepCycles += n
			if end < p.Len() {
				res.AddedLatency += p.WakeLatency
			}
		} else {
			res.EnergyJ += idleEnergy
		}
		t = end
	}
	if baseline > 0 {
		res.Savings = 1 - res.EnergyJ/baseline
	}
	return res
}

// BreakEvenCycles returns the idle length beyond which sleeping beats
// staying awake, for an idle period drawing idlePower per cycle:
// the classic T_be = E_wake / ((P_idle - P_sleep) · t_cycle).
func BreakEvenCycles(p *Profile, idlePower float64) int {
	diff := (idlePower - p.SleepPower) * p.CycleSeconds
	if diff <= 0 {
		return math.MaxInt32
	}
	return int(math.Ceil(p.WakeEnergy / diff))
}

// Sweep evaluates a set of timeout policies plus always-on and the
// oracle, returning the results in evaluation order.
func Sweep(p *Profile, timeouts []int) []Result {
	out := []Result{Evaluate(p, AlwaysOn{})}
	for _, n := range timeouts {
		out = append(out, Evaluate(p, Timeout{N: n}))
	}
	out = append(out, Oracle(p))
	return out
}
