// Package baseline implements the comparison schedulers of the MICCO
// evaluation. Groute is the paper's primary baseline: a load-balance-first
// policy that places each job, with its data, on the earliest available
// device (Ben-Nun et al., "Groute: An Asynchronous Multi-GPU Programming
// Model for Irregular Computations"). RoundRobin and LocalityOnly are
// ablation baselines bracketing the two extremes of Fig. 2: pure balance
// with no cost signal, and pure data reuse with no balance signal.
package baseline

import (
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/sched"
	"micco/internal/workload"
)

// Groute assigns each pair to the device whose command queue frees up
// first (minimum simulated clock), mirroring "assign jobs and associated
// data on the earliest available device". Data locality is incidental: a
// transfer is avoided only if the earliest device happens to hold the
// operands.
type Groute struct{}

// NewGroute returns the Groute-like scheduler.
func NewGroute() *Groute { return &Groute{} }

// Name implements sched.Scheduler.
func (*Groute) Name() string { return "Groute" }

// BeginStage implements sched.Scheduler.
func (*Groute) BeginStage(*sched.Context) {}

// Assign implements sched.Scheduler. Devices removed by fault injection
// (ctx.Down) never count as available.
func (*Groute) Assign(_ workload.Pair, ctx *sched.Context) int {
	best := -1
	var bestClock float64
	for i := 0; i < ctx.NumGPU; i++ {
		if ctx.Down.Has(i) {
			continue
		}
		if c := ctx.Cluster.Device(i).Clock(); best < 0 || c < bestClock {
			best, bestClock = i, c
		}
	}
	if best < 0 {
		best = 0 // no live device: unreachable, the engine errors first
	}
	if rec := ctx.Decision; rec != nil {
		rec.Policy = obs.PolicyEarliestDevice
		for i := 0; i < ctx.NumGPU && len(rec.Candidates) < obs.MaxCandidates; i++ {
			if ctx.Down.Has(i) {
				continue
			}
			rec.Candidates = append(rec.Candidates,
				obs.CandidateScore{Device: i, Score: ctx.Cluster.Device(i).Clock()})
		}
	}
	return best
}

// RoundRobin cycles through devices regardless of load or locality.
type RoundRobin struct{ next int }

// NewRoundRobin returns a round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements sched.Scheduler.
func (*RoundRobin) Name() string { return "RoundRobin" }

// BeginStage implements sched.Scheduler.
func (*RoundRobin) BeginStage(*sched.Context) {}

// Assign implements sched.Scheduler. A down device's turns are skipped (its
// slot in the cycle is consumed, not reassigned), so the surviving devices
// keep their phase in the rotation and a restored device slots back into
// its old position.
func (r *RoundRobin) Assign(_ workload.Pair, ctx *sched.Context) int {
	d := r.next % ctx.NumGPU
	for probes := 0; ctx.Down.Has(d) && probes < ctx.NumGPU; probes++ {
		r.next++
		d = r.next % ctx.NumGPU
	}
	r.next++
	if rec := ctx.Decision; rec != nil {
		rec.Policy = obs.PolicyRoundRobin
		rec.Candidates = append(rec.Candidates, obs.CandidateScore{Device: d})
	}
	return d
}

// LocalityOnly always chases data reuse: it picks the device holding the
// most operand bytes of the pair, breaking ties by earliest clock. With
// repeated data this collapses onto few devices (case 1 of the paper's
// Fig. 2 trade-off example), starving the rest.
type LocalityOnly struct{}

// NewLocalityOnly returns the reuse-only scheduler.
func NewLocalityOnly() *LocalityOnly { return &LocalityOnly{} }

// Name implements sched.Scheduler.
func (*LocalityOnly) Name() string { return "LocalityOnly" }

// BeginStage implements sched.Scheduler.
func (*LocalityOnly) BeginStage(*sched.Context) {}

// Assign implements sched.Scheduler. Residency comes from the cluster's
// index: two mask probes up front replace the former two map lookups per
// device.
func (*LocalityOnly) Assign(p workload.Pair, ctx *sched.Context) int {
	ma := ctx.HoldersMask(p.A.ID)
	mb := ctx.HoldersMask(p.B.ID)
	if p.B.ID == p.A.ID {
		mb = gpusim.DevSet{} // count the shared operand's bytes once
	}
	best, bestBytes := -1, int64(-1)
	var bestClock float64
	for i := 0; i < ctx.NumGPU; i++ {
		if ctx.Down.Has(i) {
			continue
		}
		d := ctx.Cluster.Device(i)
		var res int64
		if ma.Has(i) {
			res += p.A.Bytes()
		}
		if mb.Has(i) {
			res += p.B.Bytes()
		}
		if res > bestBytes || (res == bestBytes && d.Clock() < bestClock) {
			best, bestBytes, bestClock = i, res, d.Clock()
		}
		if rec := ctx.Decision; rec != nil && len(rec.Candidates) < obs.MaxCandidates {
			// Score is negated resident bytes so lower wins, matching
			// CandidateScore's convention.
			rec.Candidates = append(rec.Candidates,
				obs.CandidateScore{Device: i, Score: -float64(res)})
		}
	}
	if rec := ctx.Decision; rec != nil {
		rec.Policy = obs.PolicyLocalityOnly
	}
	return best
}
