package network

import "repro/internal/routing"

// resetCandTables empties the process-wide candidate-table memo, so the next
// New of any shape misses and builds.
func resetCandTables() {
	m := &candTables
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries, m.slots = nil, 0
}

// candMemoState returns the table slots the memo holds and the slab of each
// of its tables, least recently used first, each named by slabID.
func candMemoState() (slots int, slabs []*routing.PortVC) {
	m := &candTables
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		slabs = append(slabs, slabID(e.slab))
	}
	return m.slots, slabs
}

// fillCandMemo inserts, as the most recently used entry, a placeholder
// charged slots table slots: no table, and a shape (no radix) no network has.
func fillCandMemo(slots int) {
	m := &candTables
	m.mu.Lock()
	defer m.mu.Unlock()
	m.insert(&candEntry{slots: slots})
}

// slabID names a table by the address of its slab's first slot, nil for a
// slab with no room.
func slabID(slab []routing.PortVC) *routing.PortVC {
	if cap(slab) == 0 {
		return nil
	}
	return &slab[:1][0]
}
