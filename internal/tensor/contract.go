package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Contract performs a hadron contraction of a with b, returning a new tensor
// with identity outID. For rank 2 (mesons) this is a batched matrix product
// C[b] = A[b] * B[b]. For rank 3 (baryons) it contracts the shared middle
// index: C[b][i,j,k] = sum_l A[b][i,j,l] * B[b][i,l,k], i.e. for each batch
// and each leading index i an independent DxD matrix product.
//
// Work is parallelized across workers goroutines (<=0 selects GOMAXPROCS).
func Contract(a, b *Tensor, outID uint64, workers int) (*Tensor, error) {
	out := &Tensor{}
	if err := ContractInto(out, a, b, outID, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// ContractInto is Contract writing into caller-owned storage: dst.Data is
// reused when its capacity suffices (its previous contents are ignored and
// fully overwritten) and reallocated otherwise, and dst.Desc is set to the
// output description with identity outID. A dst recycled from an arena may
// arrive dirty or resliced; neither affects the result. dst may be a, b or
// both (or share their storage exactly): a group of an operand that dst
// aliases is copied into the worker's pack buffer before any output of
// that group is stored.
//
// A single-worker call with a right-sized dst allocates nothing: the pack
// buffer comes from an internal sync.Pool and the groups run inline on the
// caller's goroutine (TestContractIntoSteadyStateAllocs pins that). A
// multi-worker call spawns a goroutine per worker, which allocates.
func ContractInto(dst *Tensor, a, b *Tensor, outID uint64, workers int) error {
	if dst == nil {
		return fmt.Errorf("tensor: %w: ContractInto with nil destination", ErrInvalidOperand)
	}
	od, err := contractOperands(a, b, outID)
	if err != nil {
		return err
	}
	if vals := 2 * int(od.Elems()); cap(dst.Data) >= vals {
		dst.Data = dst.Data[:vals]
	} else {
		dst.Data = make([]float64, vals)
	}
	dst.Desc = od
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batchedMatMul(dst.Data, a.Data, b.Data, groups(od), od.Dim, workers)
	return nil
}

// contractOperands validates the operands of one contraction — present,
// contractible, and each holding exactly the two planes its description
// promises, since the kernels index Data by the description alone — and
// returns the output description.
func contractOperands(a, b *Tensor, outID uint64) (Desc, error) {
	if a == nil || b == nil {
		return Desc{}, fmt.Errorf("tensor: %w: contract with nil operand", ErrInvalidOperand)
	}
	od, err := ContractOut(a.Desc, b.Desc, outID)
	if err != nil {
		return Desc{}, err
	}
	for _, t := range [2]*Tensor{a, b} {
		if len(t.Data) == 0 {
			return Desc{}, fmt.Errorf("tensor: %w: contract on metadata-only tensor %v", ErrInvalidOperand, t.Desc)
		}
		if int64(len(t.Data)) != 2*t.Elems() {
			return Desc{}, fmt.Errorf("tensor: %w: %v holds %d values, want %d (two planes of %d)", ErrInvalidOperand, t.Desc, len(t.Data), 2*t.Elems(), t.Elems())
		}
	}
	return od, nil
}

// groups is the number of independent n x n group products in a
// contraction with output description d.
func groups(d Desc) int {
	if d.Rank == RankBaryon {
		return d.Batch * d.Dim
	}
	return d.Batch
}

// batchedMatMul computes group g of dst = a x b for g in [0, batch), where
// each group is an n x n complex matrix. dst contents on entry are
// ignored. A single worker runs inline on the caller's goroutine with no
// synchronization at all; otherwise it spawns one goroutine per worker (at
// most one per group), which draw group indices from a shared atomic
// counter while the caller waits. (A caller that took a share itself made
// two-group calls slower on two threads, DESIGN.md §7.)
func batchedMatMul(dst, a, b []float64, batch, n, workers int) {
	if workers = min(workers, batch); workers <= 1 {
		buf := packPool.Get().(*packBuf)
		for g := 0; g < batch; g++ {
			contractGroup(dst, a, b, g, n, buf)
		}
		packPool.Put(buf)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	run := func() {
		defer wg.Done()
		buf := packPool.Get().(*packBuf)
		for {
			g := int(next.Add(1)) - 1
			if g >= batch {
				break
			}
			contractGroup(dst, a, b, g, n, buf)
		}
		packPool.Put(buf)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go run()
	}
	wg.Wait()
}
