package hier

import (
	"math/rand"
	"testing"

	"micco/internal/core"
)

// threeScan is level 1 as it is defined: the least-loaded node (lowest
// index on ties) among those under their limit that hold both operands,
// else either, else any; with every node at its limit, the least-loaded
// node outright.
func threeScan(load []int, limit func(n int) int, a, b []bool) int {
	under := func(n int) bool { return load[n] < limit(n) }
	for _, ok := range []func(n int) bool{
		func(n int) bool { return a[n] && b[n] && under(n) },
		func(n int) bool { return (a[n] || b[n]) && under(n) },
		under,
		func(int) bool { return true },
	} {
		best := -1
		for n := range load {
			if ok(n) && (best < 0 || load[n] < load[best]) {
				best = n
			}
		}
		if best >= 0 {
			return best
		}
	}
	return 0
}

// TestLevel1MatchesThreeScan drives the holder-list-and-tournament selector
// and the definition through the same random states — loads around the
// limit so every step and the all-over-limit case come up, full and
// partial last nodes, stamps from sparse to dense — charging the chosen
// node between picks, so a stale tournament path shows as a wrong pick.
func TestLevel1MatchesThreeScan(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	steps := [4]int{}
	for trial := 0; trial < 400; trial++ {
		nodes, size := 1+rng.Intn(40), 1+rng.Intn(8)
		s := New(rng.Intn(4), core.Bounds{0, 2, 0})
		s.numNodes, s.nodeSize = nodes, size
		s.numGPU = nodes*size - rng.Intn(size) // the last node may be partial
		s.nodeLoad = make([]int, nodes)
		s.aStamp, s.bStamp = make([]uint64, nodes), make([]uint64, nodes)
		s.tree = make([]int32, 2*nodes)
		balance := rng.Intn(4)
		limit := func(n int) int { return balance*s.sizeOf(n) + 2*s.nodeBound }
		for n := range s.nodeLoad {
			s.nodeLoad[n] = 2 * rng.Intn(limit(n)/2+2)
		}
		s.seed(balance)
		density := rng.Float64()
		for pick := 0; pick < 60; pick++ {
			a, b := make([]bool, nodes), make([]bool, nodes)
			s.stamp++
			s.holderN = s.holderN[:0]
			for n := 0; n < nodes; n++ {
				a[n], b[n] = rng.Float64() < density/2, rng.Float64() < density/2
				if a[n] {
					s.aStamp[n] = s.stamp
				}
				if b[n] {
					s.bStamp[n] = s.stamp
				}
				if a[n] || b[n] {
					s.holderN = append(s.holderN, n)
				}
			}
			// Assign lists A's nodes, then B's: not in ascending order.
			rng.Shuffle(len(s.holderN), func(i, j int) { s.holderN[i], s.holderN[j] = s.holderN[j], s.holderN[i] })
			want := threeScan(s.nodeLoad, limit, a, b)
			if got := s.pickNode(); got != want {
				t.Fatalf("trial %d pick %d: node %d, definition says %d (loads %v, balance %d, bound %d, sizes %d/%d)",
					trial, pick, got, want, s.nodeLoad, balance, s.nodeBound, size, s.sizeOf(nodes-1))
			}
			switch under := s.nodeLoad[want] < limit(want); {
			case !under:
				steps[3]++
			case a[want] && b[want]:
				steps[0]++
			case a[want] || b[want]:
				steps[1]++
			default:
				steps[2]++
			}
			s.addLoad(want)
		}
	}
	for i, n := range steps {
		if n == 0 {
			t.Errorf("step %d of level 1 never decided a pick: %v", i+1, steps)
		}
	}
}
