package gpusim

// SlotTableBuilt reports whether the cluster has built its id→slot table
// since the last bind (see BindTensors).
func (c *Cluster) SlotTableBuilt() bool { return c.slotsBuilt }
