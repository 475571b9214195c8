package deadlock

// LockedVertices and PrevScan show the differential scan test the detector
// state that has no public reader: the most recent deadlocked set, ascending,
// and the previous scan's cycle and verdict.
func (d *Detector) LockedVertices() []int32 { return d.lockedList }

func (d *Detector) PrevScan() (at int64, knotted bool) { return d.prevScanAt, d.prevKnotted }
