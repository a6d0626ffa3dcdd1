package gpusim

import "unsafe"

// SlotTableBuilt reports whether the cluster has built its id→slot table
// since the last bind (see BindTensors).
func (c *Cluster) SlotTableBuilt() bool { return c.slotsBuilt }

// IndexBytesPerSlot returns what the residency index keeps per tensor slot:
// its records, host records, run refs, run slab and freed-run lists, each
// counted as length × element size.
func (c *Cluster) IndexBytesPerSlot() float64 {
	ri := c.index
	n := len(ri.recs)*int(unsafe.Sizeof(tensorRec{})) + len(ri.hosts)*int(unsafe.Sizeof(hostRec{})) +
		len(ri.held)*int(unsafe.Sizeof(runRef{})) + len(ri.slab)*int(unsafe.Sizeof(uint16(0)))
	for _, f := range ri.freed {
		n += len(f) * int(unsafe.Sizeof(uint32(0)))
	}
	return float64(n) / float64(len(ri.recs))
}

// BlockBytesPerCopy returns what the block slab keeps per copy, and how many
// copies that is: its blocks past the nil one, each a copy resident at the
// run's peak (a dropped block is reused before the slab grows), counted as
// length × element size.
func (c *Cluster) BlockBytesPerCopy() (float64, int) {
	n := len(c.index.blocks) - 1
	return float64(n*int(unsafe.Sizeof(block{}))) / float64(n), n
}
