package deadlock

// LockedVertices shows the differential scan test the detector state that has
// no public reader: the most recent deadlocked set, ascending.
func (d *Detector) LockedVertices() []int32 { return d.lockedList }
