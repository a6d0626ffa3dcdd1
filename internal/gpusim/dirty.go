package gpusim

// dirtySet records which devices' scheduler-visible keys — Clock, MemUsed,
// Capacity, Failed — may have changed since a consumer last looked, so an
// index built over those keys (sched's availability index) refreshes only
// the devices that moved instead of rescanning the cluster per placement.
//
// Marks are fed at the few places the keys are written: the queue-advance
// helpers (advanceTransferQueue, and transfer, the one link booking — whose
// D2H write-back for a host-staged operand moves the *source* holder, not
// just the target device),
// Device.install/drop (every allocation, eviction, discard and device
// loss), the kernel charge in ExecContraction, and the fault surface;
// Barrier and Reset (hence Restore) touch every device and mark
// the whole cluster. Marking is conservative: a mark does not promise the
// key differs, only that an unmarked device's keys are unchanged.
type dirtySet struct {
	ids    []int  // marked devices, each at most once
	marked []bool // marked[dev] mirrors membership in ids
	all    bool   // every device is dirty; ids is then empty
	// gen counts drains. A consumer passes back the generation its last
	// drain returned; a mismatch means someone else drained in between and
	// took marks the consumer never saw, so it is told to rescan.
	gen uint64
}

func newDirtySet(numDevices int) *dirtySet {
	return &dirtySet{ids: make([]int, 0, numDevices), marked: make([]bool, numDevices), all: true, gen: 1}
}

func (s *dirtySet) mark(dev int) {
	if s.all || s.marked[dev] {
		return
	}
	s.marked[dev] = true
	s.ids = append(s.ids, dev)
}

func (s *dirtySet) markAll() {
	if s.all {
		return
	}
	s.clear()
	s.all = true
}

func (s *dirtySet) clear() {
	for _, dev := range s.ids {
		s.marked[dev] = false
	}
	s.ids = s.ids[:0]
	s.all = false
}

// DrainDirty returns the devices whose Clock, MemUsed, Capacity or Failed
// state may have changed since the previous drain, and empties the set.
// since is the generation the caller's previous drain returned (zero for a
// first drain); all reports that every device must be treated as changed —
// after Barrier, Reset or Restore, on a first drain, or when another
// consumer drained in between (since is stale). devs is empty when all is
// set, lists each device at most once in no particular order, and is valid
// only until the next cluster mutation. No allocation.
func (c *Cluster) DrainDirty(since uint64) (devs []int, all bool, gen uint64) {
	s := c.dirty
	devs, all = s.ids, s.all || since != s.gen
	s.clear()
	if all {
		devs = devs[:0]
	}
	s.gen++
	return devs, all, s.gen
}
