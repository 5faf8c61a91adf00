package cpu

import (
	"cppc/internal/protect"
)

// MemoryPort is the seam between the timing core and the memory
// hierarchy: everything the pipeline needs from the data side. A port
// serves loads and stores at a given cycle (filling an AccessResult whose
// Latency feeds the pipeline), predicts a store's read-before-write port
// usage before the store executes (the Fig. 10 contention model), and
// reports whether the hierarchy has halted on a DUE.
//
// Two implementations exist: StackPort drives a single-core level list
// (System.Port: the Table 1 hierarchy and the Sec. 7 L3 stack), and
// coherence.CorePort gives each core of a timed Multiprocessor its own
// view of the shared MSI hierarchy.
type MemoryPort interface {
	// LoadInto performs a word load at addr issued at cycle now. *res
	// must be zeroed.
	LoadInto(addr, now uint64, res *protect.AccessResult)
	// StoreInto performs a word store at addr issued at cycle now. *res
	// must be zeroed.
	StoreInto(addr, val, now uint64, res *protect.AccessResult)
	// PlanStore predicts the store's read-before-write behaviour: whether
	// the store must wait for the read (2D parity) and how many read-port
	// word-slots it books (CPPC steals them without waiting).
	PlanStore(addr uint64) (wait bool, rbwWords int)
	// PlanLoadMiss returns extra read-port cycles a load needs before its
	// access (the 2D-parity whole-line victim read on a miss).
	PlanLoadMiss(addr uint64) int
	// HitLatency is the L1 hit latency in cycles.
	HitLatency() int
	// Halted reports whether an unrecoverable fault stopped the machine.
	Halted() bool
}

// StackPort adapts a single-core level-list hierarchy (System.Levels) to
// the MemoryPort seam. Demand accesses and the pre-execution port
// planning go to Levels[0] — the level the core touches directly, which
// recurses down the stack itself. Halted aggregates over every level: a
// DUE raised deep in the stack (during a write-back verify at the L2 or
// L3, say) sets that level's flag, not the L1's, and must still stop the
// machine.
type StackPort struct {
	Levels []*protect.Controller
}

func (p StackPort) LoadInto(addr, now uint64, res *protect.AccessResult) {
	p.Levels[0].LoadInto(addr, now, res)
}

func (p StackPort) StoreInto(addr, val, now uint64, res *protect.AccessResult) {
	p.Levels[0].StoreInto(addr, val, now, res)
}

func (p StackPort) PlanStore(addr uint64) (bool, int) { return p.Levels[0].PlanStoreRBW(addr) }
func (p StackPort) PlanLoadMiss(addr uint64) int      { return p.Levels[0].PlanLoadVictimRead(addr) }
func (p StackPort) HitLatency() int                   { return p.Levels[0].C.Cfg.HitLatencyCycles }

func (p StackPort) Halted() bool {
	for _, l := range p.Levels {
		if l.Halted {
			return true
		}
	}
	return false
}
