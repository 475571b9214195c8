package deadlock

import "fmt"

// Snapshot/restore support for the model-checking explorer. The detector's
// only state that influences future behavior is the previous scan's
// deadlocked set (fresh-knot accounting compares each scan's set against it,
// and the next scan clears the VC flags it published) and the counters; the
// vertex layout is derived from the immutable host shape and everything else
// is per-scan scratch. The detection-latency accounting (prevScanAt/prevKnotted
// and the sums) is pure bookkeeping but must rewind too, or a restored path
// would charge latency against another path's scan history.

// DetectorState is the detector's mutable state.
type DetectorState struct {
	PrevLock       []bool
	Scans          int64
	Deadlocks      int64
	LastDeadlocked int

	DetectLatencySum   int64
	DetectLatencyCount int64
	LastDetectLatency  int64
	PrevScanAt         int64
	PrevKnotted        bool
}

// CaptureState snapshots the detector.
func (d *Detector) CaptureState() DetectorState {
	prevLock := make([]bool, d.layout.Total)
	for _, v := range d.lockedList {
		prevLock[v] = true
	}
	return DetectorState{
		PrevLock:       prevLock,
		Scans:          d.Scans,
		Deadlocks:      d.Deadlocks,
		LastDeadlocked: d.LastDeadlocked,

		DetectLatencySum:   d.DetectLatencySum,
		DetectLatencyCount: d.DetectLatencyCount,
		LastDetectLatency:  d.LastDetectLatency,
		PrevScanAt:         d.prevScanAt,
		PrevKnotted:        d.prevKnotted,
	}
}

// RestoreState writes a captured state back, rebuilding both forms of the
// previous deadlocked set from PrevLock. A snapshot of a differently shaped
// network is a caller bug and panics rather than restoring a truncated set.
func (d *Detector) RestoreState(s DetectorState) {
	if len(s.PrevLock) != d.layout.Total {
		panic(fmt.Sprintf("deadlock: RestoreState with %d PrevLock entries into a %d-vertex layout",
			len(s.PrevLock), d.layout.Total))
	}
	clear(d.locked)
	d.lockedList = d.lockedList[:0]
	for v, locked := range s.PrevLock {
		if locked {
			d.locked.set(int32(v))
			d.lockedList = append(d.lockedList, int32(v))
		}
	}
	d.Scans = s.Scans
	d.Deadlocks = s.Deadlocks
	d.LastDeadlocked = s.LastDeadlocked

	d.DetectLatencySum = s.DetectLatencySum
	d.DetectLatencyCount = s.DetectLatencyCount
	d.LastDetectLatency = s.LastDetectLatency
	d.prevScanAt = s.PrevScanAt
	d.prevKnotted = s.PrevKnotted
}
