package sched_test

// The placement pieces every MICCO placer shares — steps I and II of
// Algorithm 1 over a device range, the least-loaded fallback and Algorithm
// 2's min-key filter — against their definitions, each a plain scan over
// every device of the range. Flat MICCO calls them over the whole cluster
// and hier's level 2 over one node; here the ranges are the whole cluster,
// an interior node and a partial last node of a cluster wide enough that
// holder sets spill past the inline word.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"micco/internal/gpusim"
	"micco/internal/sched"
)

// refHolderCandidates is steps I and II by definition: a scan of [lo, hi)
// for the devices holding both operands under lim1, else two scans for A's
// holders and then B's others under lim2.
func refHolderCandidates(c *sched.Context, ma, mb gpusim.DevSet, lo, hi, bound1, bound2 int) ([]int, int) {
	var out []int
	for d := lo; d < hi; d++ {
		if ma.Has(d) && mb.Has(d) && c.StageLoad[d] < c.BalanceNum+bound1 {
			out = append(out, d)
		}
	}
	if len(out) > 0 {
		return out, 0
	}
	for d := lo; d < hi; d++ {
		if ma.Has(d) && c.StageLoad[d] < c.BalanceNum+bound2 {
			out = append(out, d)
		}
	}
	for d := lo; d < hi; d++ {
		if mb.Has(d) && !ma.Has(d) && c.StageLoad[d] < c.BalanceNum+bound2 {
			out = append(out, d)
		}
	}
	if len(out) > 0 {
		return out, 1
	}
	return nil, -1
}

// refLeastLoaded is the fallback by definition: the first live device of
// [lo, hi) attaining the minimum load, -1 when none is live.
func refLeastLoaded(c *sched.Context, lo, hi int) int {
	minLoad := -1
	for d := lo; d < hi; d++ {
		if !c.Down.Has(d) && (minLoad < 0 || c.StageLoad[d] < minLoad) {
			minLoad = c.StageLoad[d]
		}
	}
	for d := lo; d < hi; d++ {
		if !c.Down.Has(d) && c.StageLoad[d] == minLoad {
			return d
		}
	}
	return -1
}

// randomSet draws each device of [0, n) outside skip with probability p.
func randomSet(rng *rand.Rand, n int, p float64, skip gpusim.DevSet) []int {
	var devs []int
	for d := 0; d < n; d++ {
		if !skip.Has(d) && rng.Float64() < p {
			devs = append(devs, d)
		}
	}
	return devs
}

// holdsIn reports whether s has a member in [lo, hi).
func holdsIn(s gpusim.DevSet, lo, hi int) bool {
	d := s.NextFrom(lo)
	return d >= 0 && d < hi
}

func TestSharedPlacementStepsMatchDefinition(t *testing.T) {
	const numGPU, nodeSize = 200, 64
	ranges := []struct {
		name   string
		lo, hi int
	}{
		{"full cluster", 0, numGPU},
		{"interior node", nodeSize, 2 * nodeSize},
		{"partial last node", 3 * nodeSize, numGPU},
	}
	cases := []struct {
		name           string
		density        float64 // holder density of each operand
		downShare      float64
		balance        int
		bound1, bound2 int
	}{
		{"sparse holders", 0.02, 0, 2, 0, 2},
		{"dense holders", 0.3, 0, 2, 0, 2},
		{"down devices", 0.1, 0.25, 2, 1, 1},
		{"step I emptied by its limit", 0.2, 0.1, 0, 0, 3},
		{"every step emptied", 0.2, 0.1, 0, 0, 0},
		{"whole range down", 0, 1, 2, 0, 2},
	}
	for _, r := range ranges {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s", r.name, tc.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(r.name)*31 + len(tc.name))))
				for trial := 0; trial < 200; trial++ {
					ctx := &sched.Context{NumGPU: numGPU, BalanceNum: tc.balance, StageLoad: make([]int, numGPU)}
					for d := range ctx.StageLoad {
						ctx.StageLoad[d] = rng.Intn(6)
					}
					ctx.Down = gpusim.DevSetOf(randomSet(rng, numGPU, tc.downShare, gpusim.DevSet{})...)
					// A failed device's residency is dropped when it fails,
					// so no down device is a holder.
					ma := gpusim.DevSetOf(randomSet(rng, numGPU, tc.density, ctx.Down)...)
					mb := gpusim.DevSetOf(randomSet(rng, numGPU, tc.density, ctx.Down)...)
					if trial%4 == 0 {
						mb = ma // a self pair, or both operands on the same devices
					}

					wantCands, wantBound := refHolderCandidates(ctx, ma, mb, r.lo, r.hi, tc.bound1, tc.bound2)
					buf := []int{-7} // what the buffer held before survives in front
					got, bound := ctx.HolderCandidates(buf, ma, mb, r.lo, r.hi, tc.bound1, tc.bound2)
					if bound != wantBound || !reflect.DeepEqual(got[1:], append([]int{}, wantCands...)) || got[0] != -7 {
						t.Fatalf("trial %d: HolderCandidates = %v (bound %d), want %v (bound %d)", trial, got[1:], bound, wantCands, wantBound)
					}
					// An operand with no holder in the range may enter as the
					// empty set: hier's level 2 does so from its node stamps.
					na, nb := ma, mb
					if !holdsIn(ma, r.lo, r.hi) {
						na = gpusim.DevSet{}
					}
					if !holdsIn(mb, r.lo, r.hi) {
						nb = gpusim.DevSet{}
					}
					got, bound = ctx.HolderCandidates(nil, na, nb, r.lo, r.hi, tc.bound1, tc.bound2)
					if bound != wantBound || !reflect.DeepEqual(got, wantCands) {
						t.Fatalf("trial %d: with range-empty operands as the empty set, HolderCandidates = %v (bound %d), want %v (bound %d)", trial, got, bound, wantCands, wantBound)
					}

					if got, want := ctx.LeastLoaded(r.lo, r.hi), refLeastLoaded(ctx, r.lo, r.hi); got != want {
						t.Fatalf("trial %d: LeastLoaded = %d, want %d", trial, got, want)
					}
				}
			})
		}
	}
}

func TestFilterMinMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		ids := rng.Perm(1 + rng.Intn(40))
		keys := make([]float64, 64)
		for i := range keys {
			keys[i] = float64(rng.Intn(4))
		}
		key := func(id int) float64 { return keys[id] }
		min := key(ids[0])
		for _, id := range ids {
			if key(id) < min {
				min = key(id)
			}
		}
		var want []int
		for _, id := range ids {
			if key(id) == min {
				want = append(want, id)
			}
		}
		if got := sched.FilterMin(ids, key); !reflect.DeepEqual(got, want) || &got[0] != &ids[0] {
			t.Fatalf("trial %d: FilterMin = %v, want %v in the input's own array", trial, got, want)
		}
	}
}
