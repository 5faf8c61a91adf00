// Package trace generates the synthetic instruction streams that stand in
// for the paper's SPEC2000 SimPoints. A Profile controls the memory-access
// behaviour the experiments consume — instruction mix, working-set size,
// locality, store-rehit bias (how often a store lands on an already-dirty
// word), and branch behaviour — and each of the paper's 15 benchmarks gets
// a profile calibrated to land in its published regime (e.g. mcf's ~80% L2
// miss rate, Sec. 6.2).
//
// Generation is deterministic for a given (profile, seed).
package trace

import "cppc/internal/lfrng"

// Op classifies an instruction for the timing model.
type Op uint8

const (
	OpInt Op = iota
	OpIntMul
	OpFP
	OpFPMul
	OpBranch
	OpLoad
	OpStore
)

func (o Op) String() string {
	switch o {
	case OpInt:
		return "int"
	case OpIntMul:
		return "imul"
	case OpFP:
		return "fp"
	case OpFPMul:
		return "fmul"
	case OpBranch:
		return "branch"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	}
	return "?"
}

// Instr is one dynamic instruction. Dep1/Dep2 are producer distances (how
// many instructions back), 0 meaning no register dependency. The struct is
// kept at 16 bytes plus the address — it is copied twice per simulated
// instruction through the batching buffers.
type Instr struct {
	Addr       uint64 // word-aligned effective address (loads/stores)
	Dep1, Dep2 int32
	Op         Op
	Mispredict bool // branches only: this branch flushes the front end
}

// Profile describes one synthetic benchmark.
type Profile struct {
	Name string

	// Instruction mix (fractions of the dynamic stream; the remainder is
	// plain integer ALU work).
	LoadFrac, StoreFrac  float64
	BranchFrac           float64
	FPFrac               float64 // fraction of non-memory work that is FP
	MulFrac              float64 // fraction of ALU work on multipliers
	BranchMispredictRate float64
	DepDistance          int // typical producer distance (ILP proxy)

	// Memory behaviour. Most accesses hit a hot window that drifts slowly
	// across the working set (working-set migration): the drift rate sets
	// the compulsory miss rate and bounds how much dirty data accumulates
	// before eviction.
	WorkingSetBytes int     // total footprint
	HotBytes        int     // read-mostly hot-window size (pins cache residency)
	StoreBytes      int     // region fresh stores sweep through (write churn)
	DriftPer1000    int     // blocks the hot window slides per 1000 memory accesses
	HotFrac         float64 // probability an access goes to the hot window
	SeqFrac         float64 // probability an access continues a stream
	StoreRehit      float64 // probability a store revisits a recent store target (stack)
	LoadRehit       float64 // probability a load reads a recently stored word
}

// Gen produces the dynamic stream. Its state — including the RNG vector
// and the recent-store window — is held inline so a generator costs one
// allocation, and embedding (trace.CoreGen) costs none.
type Gen struct {
	p   Profile
	rng lfrng.Rand

	seqAddr      uint64
	storeAddr    uint64 // fresh-store sweep pointer
	hotBase      uint64 // base of the drifting hot window
	driftAcc     int    // fractional drift accumulator (per-mille)
	recentStores [64]uint64
	rsHead       int

	// Draw bounds fixed by the profile, precomputed once (see lfrng.Bound).
	depB, dep2B, rsB, hotB, wsB lfrng.Bound

	// Cumulative op-mix thresholds, precomputed from the profile so Next
	// compares the mix draw against constants instead of re-summing the
	// fractions per instruction.
	loadT, storeT, branchT float64
}

// NewGen builds a deterministic generator for the profile.
func (p Profile) NewGen(seed int64) *Gen {
	g := new(Gen)
	p.initGen(g, seed)
	return g
}

// initGen (re)initializes g in place — the allocation-free form of NewGen
// used where the Gen is embedded in a larger structure.
func (p Profile) initGen(g *Gen, seed int64) {
	*g = Gen{p: p}
	g.rng.Seed(seed)
	if p.DepDistance > 0 {
		g.depB = lfrng.MakeBound(p.DepDistance)
		g.dep2B = lfrng.MakeBound(p.DepDistance * 2)
	}
	g.rsB = lfrng.MakeBound(len(g.recentStores))
	g.hotB = lfrng.MakeBound(p.HotBytes / 8)
	g.wsB = lfrng.MakeBound(p.WorkingSetBytes / 8)
	g.loadT = p.LoadFrac
	g.storeT = p.LoadFrac + p.StoreFrac
	g.branchT = p.LoadFrac + p.StoreFrac + p.BranchFrac
}

// Next returns the next dynamic instruction.
func (g *Gen) Next() Instr {
	p := &g.p
	r := g.rng.Float64()
	var in Instr
	switch {
	case r < g.loadT:
		in.Op = OpLoad
		in.Addr = g.address(false)
	case r < g.storeT:
		in.Op = OpStore
		in.Addr = g.address(true)
		g.recentStores[g.rsHead] = in.Addr
		if g.rsHead++; g.rsHead == len(g.recentStores) {
			g.rsHead = 0
		}
	case r < g.branchT:
		in.Op = OpBranch
		in.Mispredict = g.rng.Float64() < p.BranchMispredictRate
	default:
		switch {
		case g.rng.Float64() < p.FPFrac:
			if g.rng.Float64() < p.MulFrac {
				in.Op = OpFPMul
			} else {
				in.Op = OpFP
			}
		case g.rng.Float64() < p.MulFrac:
			in.Op = OpIntMul
		default:
			in.Op = OpInt
		}
	}
	// Register dependencies: geometric-ish around DepDistance.
	if p.DepDistance > 0 {
		in.Dep1 = int32(1 + g.rng.IntnBound(g.depB))
		if g.rng.Int31()&1 == 0 {
			in.Dep2 = int32(1 + g.rng.IntnBound(g.dep2B))
		}
	}
	return in
}

// NextBatch fills dst with the next len(dst) instructions and reports how
// many were written (always len(dst): the generator never runs dry). The
// stream is identical to len(dst) successive Next calls.
func (g *Gen) NextBatch(dst []Instr) int {
	for i := range dst {
		dst[i] = g.Next()
	}
	return len(dst)
}

// address draws an effective address per the locality model.
func (g *Gen) address(isStore bool) uint64 {
	p := &g.p
	rehit := p.LoadRehit
	if isStore {
		// Revisiting a recent store target is what creates stores to
		// already-dirty words (CPPC's read-before-write trigger).
		rehit = p.StoreRehit
	}
	if g.rng.Float64() < rehit {
		if a := g.recentStores[g.rng.IntnBound(g.rsB)]; a != 0 {
			return a
		}
	}
	// The hot window drifts across the working set.
	g.driftAcc += p.DriftPer1000
	for g.driftAcc >= 1000 {
		g.driftAcc -= 1000
		g.hotBase += 32 // one cache block
		if g.hotBase+uint64(p.HotBytes) > uint64(p.WorkingSetBytes) {
			g.hotBase = 0
		}
	}

	if isStore {
		// Fresh stores sweep their own churn region (building output):
		// one write-allocate miss per block, then clean-word hits. The
		// swept blocks leave the cache young and fully dirty, which is
		// what keeps the resident dirty fraction near Table 2's regime
		// while the read window pins most of the capacity clean.
		g.storeAddr += 8
		if g.storeAddr >= uint64(p.StoreBytes) {
			g.storeAddr = 0
		}
		// The store region lives above the read working set.
		return uint64(p.WorkingSetBytes) + g.storeAddr
	}

	r := g.rng.Float64()
	switch {
	case r < p.SeqFrac:
		// Stream through the full working set (array sweeps).
		g.seqAddr += 8
		if g.seqAddr >= uint64(p.WorkingSetBytes) {
			g.seqAddr = 0
		}
		return g.seqAddr
	case r < p.SeqFrac+p.HotFrac:
		// Read-mostly hot window (stack reads, hot heap).
		return g.hotBase + uint64(g.rng.IntnBound(g.hotB))*8
	default:
		return uint64(g.rng.IntnBound(g.wsB)) * 8
	}
}
