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
// arrive dirty or resliced; neither affects the result. dst may alias a or
// b: each operand block is unpacked into split-complex panels before any
// output element of that block is written.
//
// Steady-state ContractInto calls with a right-sized dst allocate nothing:
// pack panels come from an internal sync.Pool, and single-worker calls run
// inline on the caller's goroutine.
func ContractInto(dst *Tensor, a, b *Tensor, outID uint64, workers int) error {
	if dst == nil {
		return fmt.Errorf("tensor: ContractInto with nil destination")
	}
	od, err := contractOperands(a, b, outID)
	if err != nil {
		return err
	}
	elems := int(od.Elems())
	if cap(dst.Data) >= elems {
		dst.Data = dst.Data[:elems]
	} else {
		dst.Data = make([]complex128, elems)
	}
	dst.Desc = od
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	switch a.Rank {
	case RankMeson:
		batchedMatMul(dst.Data, a.Data, b.Data, a.Batch, a.Dim, workers)
	case RankBaryon:
		// A rank-3 contraction is Batch*Dim independent DxD products, so
		// reuse the batched kernel with an expanded batch count.
		batchedMatMul(dst.Data, a.Data, b.Data, a.Batch*a.Dim, a.Dim, workers)
	default:
		return fmt.Errorf("tensor: unsupported rank %d", a.Rank)
	}
	return nil
}

// contractOperands validates the operands of one contraction — present,
// contractible, and each holding exactly the data its description
// promises, since the kernels index Data by the description alone — and
// returns the output description.
func contractOperands(a, b *Tensor, outID uint64) (Desc, error) {
	if a == nil || b == nil {
		return Desc{}, fmt.Errorf("tensor: contract with nil operand")
	}
	od, err := ContractOut(a.Desc, b.Desc, outID)
	if err != nil {
		return Desc{}, err
	}
	for _, t := range [2]*Tensor{a, b} {
		if len(t.Data) == 0 {
			return Desc{}, fmt.Errorf("tensor: contract on metadata-only tensor %v", t.Desc)
		}
		if int64(len(t.Data)) != t.Elems() {
			return Desc{}, fmt.Errorf("tensor: operand %v holds %d elements, want %d", t.Desc, len(t.Data), t.Elems())
		}
	}
	return od, nil
}

// batchedMatMul computes dst[g] = a[g] * b[g] for g in [0, batch), where
// each slot is an n x n complex matrix. dst contents on entry are ignored.
// Group indices are handed out through a shared atomic counter so the
// fan-out costs nothing per group; a single worker runs inline on the
// caller's goroutine with no synchronization at all.
func batchedMatMul(dst, a, b []complex128, batch, n, workers int) {
	if workers > batch {
		workers = batch
	}
	if workers <= 1 {
		buf := getPackBuf(n)
		for g := 0; g < batch; g++ {
			off := g * n * n
			contractGroupSoA(dst[off:off+n*n], a[off:off+n*n], b[off:off+n*n], n, buf)
		}
		putPackBuf(buf)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := getPackBuf(n)
			defer putPackBuf(buf)
			for {
				g := int(next.Add(1)) - 1
				if g >= batch {
					return
				}
				off := g * n * n
				contractGroupSoA(dst[off:off+n*n], a[off:off+n*n], b[off:off+n*n], n, buf)
			}
		}()
	}
	wg.Wait()
}
