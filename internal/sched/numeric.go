package sched

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"micco/internal/obs"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// numShards is the shard count of the numeric tensor store. The maps are
// unlocked: every access happens on the store's single owning goroutine
// (the engine in serial mode, the pipeline coordinator in concurrent
// mode), with construction, channel hand-off and the final WaitGroup
// join providing the happens-before edges; -race validates the claim.
// Sharding is kept so the final fingerprint walk and tests iterate the
// store in bounded chunks.
const numShards = 32

// tensorShard is one slice of the tensor store.
type tensorShard struct {
	m map[uint64]*tensor.Tensor
}

// levelQueueDepth bounds how many dependency-level batches may sit
// between the scheduling engine and the numeric coordinator. Small and
// fixed: enough to pipeline stage s+1's scheduling against stage s's
// numerics, while backpressure keeps a slow numeric stream from piling
// up unboundedly.
const levelQueueDepth = 4

// levelizer partitions one stage's contraction stream into dependency
// levels: level(p) is one past the highest level among the in-stage
// producers of p's operands (read-after-write), the previous producer of
// p's output (write-after-write) and the previous readers of p's output
// (write-after-read). Pairs within one level are mutually independent —
// no output duplicated, no operand produced or overwritten by a peer —
// so each level is safe to run as fused tensor.ContractBatch calls; levels
// execute in order. A stage both front ends emit is entirely level 0 and
// fuses freely, exactly like the old independence classifier; hand-built
// FromStages chains split into as many levels as their longest chain.
// All scratch (maps, buckets, the level-sorted order) is reused across
// stages, so steady-state partitioning allocates nothing.
type levelizer struct {
	prod   map[uint64]int // id -> producing pair's level + 1
	read   map[uint64]int // id -> max reading level + 1 of current version
	lvls   []int
	order  []workload.Pair
	starts []int
	cur    []int
	levels [][]workload.Pair
}

// partition splits pairs into dependency levels, preserving stream order
// within each level. The returned slices alias either the input (single
// level) or the levelizer's scratch — valid only until the next call.
func (l *levelizer) partition(pairs []workload.Pair) [][]workload.Pair {
	if l.prod == nil {
		l.prod = make(map[uint64]int)
		l.read = make(map[uint64]int)
	}
	clear(l.prod)
	clear(l.read)
	if cap(l.lvls) < len(pairs) {
		l.lvls = make([]int, len(pairs))
	}
	lvls := l.lvls[:len(pairs)]
	maxLvl := 0
	for i, p := range pairs {
		lvl := 0
		if v := l.prod[p.A.ID]; v > lvl {
			lvl = v
		}
		if v := l.prod[p.B.ID]; v > lvl {
			lvl = v
		}
		if v := l.prod[p.Out.ID]; v > lvl {
			lvl = v
		}
		if v := l.read[p.Out.ID]; v > lvl {
			lvl = v
		}
		lvls[i] = lvl
		if lvl > maxLvl {
			maxLvl = lvl
		}
		if lvl+1 > l.read[p.A.ID] {
			l.read[p.A.ID] = lvl + 1
		}
		if lvl+1 > l.read[p.B.ID] {
			l.read[p.B.ID] = lvl + 1
		}
		// The write opens a fresh version: readers of the old one are
		// already fenced by the floors above.
		l.prod[p.Out.ID] = lvl + 1
		l.read[p.Out.ID] = 0
	}
	l.levels = l.levels[:0]
	if maxLvl == 0 {
		l.levels = append(l.levels, pairs)
		return l.levels
	}
	// Stable counting sort by level into the reused order scratch.
	n := maxLvl + 1
	if cap(l.starts) < n+1 {
		l.starts = make([]int, n+1)
	}
	starts := l.starts[:n+1]
	for i := range starts {
		starts[i] = 0
	}
	for _, lv := range lvls {
		starts[lv+1]++
	}
	for i := 1; i <= n; i++ {
		starts[i] += starts[i-1]
	}
	if cap(l.order) < len(pairs) {
		l.order = make([]workload.Pair, len(pairs))
	}
	order := l.order[:len(pairs)]
	if cap(l.cur) < n {
		l.cur = make([]int, n)
	}
	cur := l.cur[:n]
	copy(cur, starts[:n])
	for i, p := range pairs {
		order[cur[lvls[i]]] = p
		cur[lvls[i]]++
	}
	for k := 0; k < n; k++ {
		l.levels = append(l.levels, order[starts[k]:starts[k+1]])
	}
	return l.levels
}

// numericStore executes the contraction stream with real complex128
// arithmetic so tests and examples can validate that scheduling decisions
// never change numerical results.
//
// exec queues each placed pair; flushStage, called by the engine at every
// stage boundary, partitions the queued stream into dependency levels and
// executes each level as fused tensor.ContractBatch calls of levelWidth
// pairs — every unique operand of a batch packed once, shared across all
// its readers there. With a pool size of
// one this happens inline on the engine goroutine. With a larger pool the
// levels are handed over a bounded channel to a pipeline coordinator that
// runs them on a persistent cooperative worker pool
// (tensor.BatchPipeline), so stage s+1's scheduling and simulation
// overlap stage s's numerics. Because fused exact batches are
// bit-identical to the pairwise path and levels replay the stream order,
// results are bit-for-bit identical at any pool size.
type numericStore struct {
	shards  [numShards]tensorShard
	workers int // kernel workers per batch in serial mode
	// mode selects the kernel tier every contraction runs under:
	// tensor.ModeExact (the default, bit-identical to the seed kernels) or
	// tensor.ModeFast with Options.FastKernels.
	mode tensor.KernelMode

	// Stage accumulation and level-execution scratch, owned by whichever
	// goroutine runs the level (engine in serial mode, coordinator in
	// concurrent mode — never both; lv and pending are always
	// engine-side).
	pending  []workload.Pair
	batchOps []tensor.BatchOp
	lv       levelizer

	// Dead-tensor reclamation state (Options.NumericReclaim). readsLeft
	// counts, per tensor ID, the operand reads the stream has yet to
	// perform; a tensor whose count hits zero is dead — no later
	// contraction can observe it — so its Frobenius norm is cached for the
	// fingerprint and its buffer is recycled through the arena. IDs whose
	// liveness is ambiguous (written more than once, or both input and
	// output) are simply absent from the map and never reclaimed.
	reclaim   bool
	readsLeft map[uint64]*atomic.Int64
	arena     *bufArena
	norms     map[uint64]float64 // final norms of reclaimed tensors
	// Reclamation fan-out scratch (coordinator-owned).
	deadT    []*tensor.Tensor
	deadIDs  []uint64
	deadNorm []float64

	// obs, when non-nil, receives per-worker busy/wait/utilization gauges
	// at pipeline shutdown. Timing is only measured when set, so the
	// disabled path pays nothing.
	obs *obs.Registry

	// Concurrent pipeline state; batchQ is nil in serial mode.
	pool      int
	bp        *tensor.BatchPipeline
	batchQ    chan []workload.Pair
	freeQ     chan []workload.Pair
	parentCtx context.Context
	runCtx    context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	errMu     sync.Mutex
	err       error // first error in stream order
	closeOnce sync.Once
	stopOnce  sync.Once
}

func newNumericStore(ctx context.Context, w *workload.Workload, opts Options) (*numericStore, error) {
	rng := rand.New(rand.NewSource(opts.NumericSeed))
	s := &numericStore{workers: opts.NumericWorkers}
	if opts.FastKernels {
		s.mode = tensor.ModeFast
	}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64]*tensor.Tensor)
	}
	// Input data is drawn sequentially from one stream so the store's
	// contents do not depend on the pool size.
	for _, d := range w.Inputs {
		t, err := tensor.NewRandom(d, rng)
		if err != nil {
			return nil, fmt.Errorf("sched: numeric input %v: %w", d, err)
		}
		s.shards[shardFor(d.ID)].m[d.ID] = t
	}
	pool := opts.PoolSize()
	if pool < 1 {
		pool = 1
	}
	if opts.NumericReclaim {
		s.reclaim = true
		s.readsLeft = buildLiveness(w)
		s.arena = newBufArena()
		s.norms = make(map[uint64]float64)
		// Inputs the stream never reads are dead on arrival.
		for _, d := range w.Inputs {
			if rl, ok := s.readsLeft[d.ID]; ok && rl.Load() == 0 {
				s.reclaimTensor(d.ID)
			}
		}
	}
	if pool <= 1 {
		return s, nil
	}
	s.obs = opts.Obs
	s.pool = pool
	s.bp = tensor.NewBatchPipeline(pool)
	if s.obs != nil {
		s.bp.EnableTiming()
	}
	s.parentCtx = ctx
	s.runCtx, s.cancel = context.WithCancel(ctx)
	s.batchQ = make(chan []workload.Pair, levelQueueDepth)
	s.freeQ = make(chan []workload.Pair, levelQueueDepth+1)
	s.wg.Add(1)
	go s.pipelineLoop()
	return s, nil
}

func shardFor(id uint64) int { return int(id % numShards) }

// exec queues pair p for the stage-boundary flush. Identical in both
// modes: the level partitioning at the boundary decides how the stage
// actually runs.
func (s *numericStore) exec(p workload.Pair) error {
	s.pending = append(s.pending, p)
	return nil
}

// flushStage executes the pairs queued since the last stage boundary,
// partitioned into dependency levels. Serial mode runs each level inline
// (execLevel); concurrent mode copies each level into a recycled
// buffer and hands it to the pipeline coordinator over the bounded batch
// queue, returning as soon as the stage is enqueued — that is the
// pipelining: the engine schedules and simulates stage s+1 while the
// pool contracts stage s. Reclamation accounting settles after each
// batch; counts are exact either way and reclaimed norms are computed
// over identical data, so the fingerprint cannot move.
func (s *numericStore) flushStage() error {
	if len(s.pending) == 0 {
		if s.batchQ != nil {
			return s.loadErr()
		}
		return nil
	}
	levels := s.lv.partition(s.pending)
	if s.batchQ == nil {
		var err error
		for _, lvl := range levels {
			if err = s.guardExecLevel(lvl, s.workers, nil); err != nil {
				break
			}
		}
		s.pending = s.pending[:0]
		return err
	}
	for _, lvl := range levels {
		var buf []workload.Pair
		select {
		case buf = <-s.freeQ:
		default:
		}
		buf = append(buf[:0], lvl...)
		select {
		case s.batchQ <- buf:
		case <-s.runCtx.Done():
			s.pending = s.pending[:0]
			if err := s.loadErr(); err != nil {
				return err
			}
			return s.runCtx.Err()
		}
	}
	s.pending = s.pending[:0]
	return s.loadErr()
}

// pipelineLoop is the numeric coordinator: it drains level batches in
// FIFO order (preserving the serial stream order, which keeps the first
// error deterministic) and executes each cooperatively on the persistent
// worker pool. On error it cancels the run context, unblocking an engine
// parked on the batch queue. When observability is attached it publishes
// the per-worker busy/wait/utilization gauges as it exits.
func (s *numericStore) pipelineLoop() {
	defer s.wg.Done()
	timed := s.obs != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	var busy time.Duration
	for pairs := range s.batchQ {
		if s.runCtx.Err() == nil {
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			if err := s.guardExecLevel(pairs, s.pool, s.bp); err != nil {
				s.setErr(err)
			}
			if timed {
				busy += time.Since(t0)
			}
		}
		select {
		case s.freeQ <- pairs:
		default:
		}
	}
	if timed {
		s.publishWorkerGauges(time.Since(start), busy)
	}
}

// guardExecLevel runs execLevel with coordinator-side panic containment:
// a panic anywhere in the level machinery (operand resolution, arena
// bookkeeping, reclamation) surfaces as a *tensor.WorkerPanicError instead
// of unwinding the coordinator goroutine — which would kill the process
// and, worse, leave the engine parked forever on the batch queue. Worker
// -1 marks the coordinator itself; worker-side panics inside the batch
// kernels are already contained by the pipeline and arrive here as plain
// errors.
func (s *numericStore) guardExecLevel(pairs []workload.Pair, workers int, bp *tensor.BatchPipeline) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: numeric coordinator: %w",
				&tensor.WorkerPanicError{Worker: -1, Value: r, Stack: debug.Stack()})
		}
	}()
	return s.execLevel(pairs, workers, bp)
}

// levelWidth is how many pairs of a dependency level run as one fused
// batch. A level's pairs are independent, so cutting it into consecutive
// sub-batches changes no result; what it changes is when storage comes
// back: reclamation settles after every sub-batch, so outputs that are
// dead on production (every final of a correlator's last level) cycle
// through levelWidth cache-warm buffers instead of one fresh zeroed
// allocation per pair. Narrower loses shared-operand packing and pool
// balance, wider loses the recycling; DESIGN.md §14 has the sweep.
const levelWidth = 16

// execLevel runs one dependency level as consecutive fused batches of at
// most levelWidth pairs in stream order: resolve every operand up front
// (so a missing one is reported before anything runs, whatever its
// position), then per sub-batch draw destination buffers, contract
// (cooperatively on the pipeline when bp is non-nil, otherwise via a
// one-shot ContractBatch), install outputs and settle reclamation. An
// operand keeps readsLeft > 0 — and so its storage — until the sub-batch
// of its last reader has settled.
func (s *numericStore) execLevel(pairs []workload.Pair, workers int, bp *tensor.BatchPipeline) error {
	ops := s.batchOps[:0]
	defer func() {
		for i := range ops {
			ops[i] = tensor.BatchOp{} // drop tensor references
		}
		s.batchOps = ops[:0]
	}()
	for _, p := range pairs {
		a, ok := s.get(p.A.ID)
		if !ok {
			return fmt.Errorf("sched: numeric operand t%d missing", p.A.ID)
		}
		b, ok := s.get(p.B.ID)
		if !ok {
			return fmt.Errorf("sched: numeric operand t%d missing", p.B.ID)
		}
		ops = append(ops, tensor.BatchOp{A: a, B: b, OutID: p.Out.ID})
	}
	for lo := 0; lo < len(ops); lo += levelWidth {
		hi := min(lo+levelWidth, len(ops))
		sub, subPairs := ops[lo:hi], pairs[lo:hi]
		for i, p := range subPairs {
			sub[i].Dst = &tensor.Tensor{}
			if s.reclaim {
				sub[i].Dst.Data = s.arena.get(int(p.Out.Elems()))
			}
		}
		var err error
		if bp != nil {
			err = bp.Run(sub, s.mode)
		} else {
			err = tensor.ContractBatch(sub, workers, s.mode)
		}
		if err != nil {
			return fmt.Errorf("sched: numeric contraction: %w", err)
		}
		for i, p := range subPairs {
			s.put(p.Out.ID, sub[i].Dst)
		}
		if s.reclaim {
			if err := s.settleReclaim(subPairs, bp); err != nil {
				return err
			}
		}
	}
	return nil
}

// settleReclaim settles a sub-batch's operand reads and reclaims every
// tensor that died: the coordinator removes them from the store (it is
// the single owner of the shard maps and of the arena), the norms fan out
// across the pipeline workers — or run inline in serial mode — and the
// coordinator recycles the buffers. Norms are computed per dead tensor
// over identical data regardless of fan-out, so the fingerprint is
// unaffected.
func (s *numericStore) settleReclaim(pairs []workload.Pair, bp *tensor.BatchPipeline) error {
	dead := s.deadT[:0]
	ids := s.deadIDs[:0]
	grab := func(id uint64) {
		sh := &s.shards[shardFor(id)]
		if t, ok := sh.m[id]; ok {
			delete(sh.m, id)
			dead = append(dead, t)
			ids = append(ids, id)
		}
	}
	for _, p := range pairs {
		if rl, ok := s.readsLeft[p.A.ID]; ok && rl.Add(-1) == 0 {
			grab(p.A.ID)
		}
		if rl, ok := s.readsLeft[p.B.ID]; ok && rl.Add(-1) == 0 {
			grab(p.B.ID)
		}
		// An output no later pair reads is dead the moment it is produced.
		if rl, ok := s.readsLeft[p.Out.ID]; ok && rl.Load() == 0 {
			grab(p.Out.ID)
		}
	}
	defer func() {
		clear(dead)
		s.deadT = dead[:0]
		s.deadIDs = ids[:0]
	}()
	n := len(dead)
	if cap(s.deadNorm) < n {
		s.deadNorm = make([]float64, n)
	}
	norms := s.deadNorm[:n]
	if bp != nil && n > 1 {
		if err := bp.Do(n, func(_, i int) { norms[i] = dead[i].Norm() }); err != nil {
			return err
		}
	} else {
		for i, t := range dead {
			norms[i] = t.Norm()
		}
	}
	for i, id := range ids {
		s.norms[id] = norms[i]
		s.arena.put(dead[i].Data)
	}
	return nil
}

// buildLiveness counts, per tensor ID, how many operand reads the stream
// performs. IDs produced more than once or used both as workload input and
// contraction output (only possible through hand-built FromStages streams)
// are excluded: their per-version liveness is ambiguous, so they are kept
// resident forever, exactly as without reclamation.
func buildLiveness(w *workload.Workload) map[uint64]*atomic.Int64 {
	reads := make(map[uint64]int)
	produced := make(map[uint64]int)
	isInput := make(map[uint64]bool, len(w.Inputs))
	for _, d := range w.Inputs {
		isInput[d.ID] = true
	}
	for _, st := range w.Stages {
		for _, p := range st.Pairs {
			reads[p.A.ID]++
			reads[p.B.ID]++
			produced[p.Out.ID]++
		}
	}
	m := make(map[uint64]*atomic.Int64, len(reads)+len(w.Inputs))
	track := func(id uint64) {
		if _, ok := m[id]; ok {
			return
		}
		if produced[id] > 1 || (produced[id] > 0 && isInput[id]) {
			return
		}
		c := new(atomic.Int64)
		c.Store(int64(reads[id]))
		m[id] = c
	}
	for _, d := range w.Inputs {
		track(d.ID)
	}
	for _, st := range w.Stages {
		for _, p := range st.Pairs {
			track(p.Out.ID)
		}
	}
	return m
}

// reclaimTensor removes a dead tensor from the store, caches its
// Frobenius norm for the fingerprint (computed over identical data, so the
// fingerprint stays bit-identical to a run without reclamation), and
// recycles its storage through the arena. Store-owner paths only
// (constructor, serial engine).
func (s *numericStore) reclaimTensor(id uint64) {
	sh := &s.shards[shardFor(id)]
	t, ok := sh.m[id]
	if !ok {
		return
	}
	delete(sh.m, id)
	s.norms[id] = t.Norm()
	s.arena.put(t.Data)
}

func (s *numericStore) get(id uint64) (*tensor.Tensor, bool) {
	t, ok := s.shards[shardFor(id)].m[id]
	return t, ok
}

func (s *numericStore) put(id uint64, t *tensor.Tensor) {
	s.shards[shardFor(id)].m[id] = t
}

// setErr records the first error of the batch stream (FIFO order, so
// deterministic) and cancels the run context.
func (s *numericStore) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
	s.cancel()
}

func (s *numericStore) loadErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

func (s *numericStore) closeQ() {
	s.closeOnce.Do(func() { close(s.batchQ) })
}

// finish drains the pipeline: the batch queue is closed, the coordinator
// runs out the remaining levels, and the first error in stream order
// wins. External cancellation surfaces as the context's error.
func (s *numericStore) finish() error {
	if s.batchQ == nil {
		return nil
	}
	s.closeQ()
	s.wg.Wait()
	if err := s.loadErr(); err != nil {
		return err
	}
	return s.parentCtx.Err()
}

// shutdown cancels outstanding pipeline work, waits for the coordinator
// and parks the worker pool. Idempotent; a no-op on the serial engine
// and cheap after finish.
func (s *numericStore) shutdown() {
	if s.batchQ == nil {
		return
	}
	s.stopOnce.Do(func() {
		s.cancel()
		s.closeQ()
		s.wg.Wait()
		s.bp.Close()
	})
}

// publishWorkerGauges emits per-worker busy/wait/utilization gauges:
// worker 0 is the coordinator (its busy time spans whole levels — operand
// resolution, cooperative compute, reclamation), workers 1..pool-1 are
// the pipeline's parked workers. Labels come from a pre-built table, so
// publishing allocates only the gauge values themselves.
func (s *numericStore) publishWorkerGauges(total, coordBusy time.Duration) {
	perWorker := s.bp.WorkerBusy()
	for w := 0; w < s.pool; w++ {
		busy := perWorker[w]
		if w == 0 {
			busy = coordBusy
		}
		wait := total - busy
		if wait < 0 {
			wait = 0
		}
		busyName, waitName, utilName := workerGaugeNames(w)
		s.obs.Gauge(busyName).Set(busy.Seconds())
		s.obs.Gauge(waitName).Set(wait.Seconds())
		if t := total.Seconds(); t > 0 {
			s.obs.Gauge(utilName).Set(busy.Seconds() / t)
		}
	}
}

// workerGaugeTable pre-builds the per-worker gauge names for the common
// pool sizes so publishing is allocation-free; larger pools fall back to
// concatenation.
var workerGaugeTable = func() [16][3]string {
	var t [16][3]string
	for w := range t {
		l := strconv.Itoa(w)
		t[w][0] = `micco_numeric_worker_busy_seconds{worker="` + l + `"}`
		t[w][1] = `micco_numeric_worker_wait_seconds{worker="` + l + `"}`
		t[w][2] = `micco_numeric_worker_utilization{worker="` + l + `"}`
	}
	return t
}()

func workerGaugeNames(w int) (busy, wait, util string) {
	if w < len(workerGaugeTable) {
		return workerGaugeTable[w][0], workerGaugeTable[w][1], workerGaugeTable[w][2]
	}
	l := strconv.Itoa(w)
	return `micco_numeric_worker_busy_seconds{worker="` + l + `"}`,
		`micco_numeric_worker_wait_seconds{worker="` + l + `"}`,
		`micco_numeric_worker_utilization{worker="` + l + `"}`
}

// fingerprint sums the Frobenius norms of every tensor the run produced,
// in ID order (float addition is not associative, so the order must be
// deterministic); a compact scheduler-independent checksum of the run's
// numerics. Tensors reclaimed by the arena contribute their cached norm —
// computed over the same data at reclamation time — so the fingerprint is
// bit-identical with reclamation on or off, at any pool size. Callers
// must finish() a concurrent store first (Run does).
func (s *numericStore) fingerprint() float64 {
	var ids []uint64
	norms := make(map[uint64]float64)
	for i := range s.shards {
		for id, t := range s.shards[i].m {
			ids = append(ids, id)
			norms[id] = t.Norm()
		}
	}
	for id, n := range s.norms {
		ids = append(ids, id)
		norms[id] = n
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sum float64
	for _, id := range ids {
		sum += norms[id]
	}
	return sum
}
