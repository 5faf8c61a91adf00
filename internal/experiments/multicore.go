package experiments

import (
	"context"
	"fmt"

	"cppc/internal/cache"
	"cppc/internal/coherence"
	"cppc/internal/core"
	"cppc/internal/cpu"
	"cppc/internal/energy"
	"cppc/internal/protect"
	"cppc/internal/tables"
	"cppc/internal/trace"
)

// mpConfigs returns the multiprocessor cache geometry: per-core 32KB L1s
// over a shared 1MB L2, both CPPC-protected.
func mpConfigs() (l1, l2 cache.Config, err error) {
	l1, err = cache.Config{
		Name: "mpL1", SizeBytes: 32 << 10, Ways: 2, BlockBytes: 32,
		DirtyGranuleWords: 1, HitLatencyCycles: 2,
	}.Validate()
	if err != nil {
		return l1, l2, fmt.Errorf("multicore L1 config: %w", err)
	}
	l2, err = cache.Config{
		Name: "mpL2", SizeBytes: 1 << 20, Ways: 4, BlockBytes: 32,
		DirtyGranuleWords: 4, HitLatencyCycles: 8,
	}.Validate()
	if err != nil {
		return l1, l2, fmt.Errorf("multicore L2 config: %w", err)
	}
	return l1, l2, nil
}

// MulticoreRun is one timed multicore cell: N OoO cores in lock step over
// the coherent CPPC hierarchy. The struct stays comparable with == so
// determinism tests can assert run equality directly.
type MulticoreRun struct {
	Bench        string
	Cores        int
	SharedFrac   float64
	Silent       bool    // silent-store elision enabled in both levels
	CPI          float64 // wall-clock cycles over instructions per core
	Cycles       uint64  // measured wall-clock cycles
	Instructions uint64  // measured instructions, summed across cores
	L1           cache.Stats
	L2           cache.Stats
	Coherence    coherence.Stats
	DirtyL1      float64 // dirty fraction averaged across L1s
	FoldsL1      uint64  // register folds summed across L1 engines
	FoldsL2      uint64
	ElidedL1     uint64 // silent stores elided, summed across L1 engines
	ElidedL2     uint64
	EnergyL1     energy.Report // all private L1s summed
	EnergyL2     energy.Report
	EnergyBus    energy.Report
	Halted       bool
}

// TotalEnergyPJ sums the hierarchy's dynamic energy over the measurement
// window: private L1s, shared L2 and the bus/directory.
func (r MulticoreRun) TotalEnergyPJ() float64 {
	return r.EnergyL1.Total() + r.EnergyL2.Total() + r.EnergyBus.Total()
}

// MulticoreCellCtx runs one (profile, cores, sharedFrac) cell; silent
// selects the cppc-silent variant in both cache levels. The run is
// deterministic for a given (profile, cores, sharedFrac, silent,
// budget): per-core trace seeds derive from b.Seed and the lock-step
// order is fixed.
func MulticoreCellCtx(ctx context.Context, prof trace.Profile, cores int, sharedFrac float64, silent bool, b Budget) (MulticoreRun, error) {
	if cores <= 0 || cores > 64 {
		return MulticoreRun{}, fmt.Errorf("multicore: cores must be in [1,64], got %d", cores)
	}
	if sharedFrac < 0 || sharedFrac > 1 {
		return MulticoreRun{}, fmt.Errorf("multicore: shared fraction %v outside [0,1]", sharedFrac)
	}
	l1cfg, l2cfg, err := mpConfigs()
	if err != nil {
		return MulticoreRun{}, err
	}
	l1conf, l2conf := core.DefaultL1Config(), core.DefaultL2Config()
	if silent {
		l1conf, l2conf = core.SilentL1Config(), core.SilentL2Config()
	}
	mkL1 := func(c *cache.Cache) protect.Scheme { return protect.MustCPPC(c, l1conf) }
	mkL2 := func(c *cache.Cache) protect.Scheme { return protect.MustCPPC(c, l2conf) }
	m := coherence.New(cores, l1cfg, l2cfg, mkL1, mkL2, 200)
	defer m.Release()
	m.Timing = coherence.DefaultTiming()

	ports := make([]cpu.MemoryPort, cores)
	srcs := make([]trace.Source, cores)
	for i, g := range prof.NewCoreGens(cores, sharedFrac, b.Seed) {
		ports[i] = m.CorePort(i)
		srcs[i] = g
	}
	cl, err := cpu.NewCluster(cpu.Table1Config(), ports, srcs)
	if err != nil {
		return MulticoreRun{}, err
	}
	defer cl.Release()
	// Idle-pool-worker hint: per-core trace generation fans out, coherence
	// stays serialized in core order; results are bit-identical either way.
	cl.SetWorkers(CellWorkers(ctx))
	warm, err := cl.RunCtx(ctx, b.Warmup, 0)
	if err != nil {
		return MulticoreRun{}, err
	}
	m.ResetStats()
	meas, err := cl.RunCtx(ctx, b.Measure, 0)
	if err != nil {
		return MulticoreRun{}, err
	}
	r := MulticoreRun{
		Bench: prof.Name, Cores: cores, SharedFrac: sharedFrac, Silent: silent,
		Cycles:       meas.Cycles - warm.Cycles,
		Instructions: meas.Instructions,
		L1:           m.TotalL1Stats(),
		L2:           m.L2.Stats,
		Coherence:    m.Stats,
		Halted:       meas.Halted,
	}
	if per := meas.Instructions / uint64(cores); per > 0 {
		r.CPI = float64(r.Cycles) / float64(per)
	}
	// Energy over the measurement window only: ResetStats zeroed the cache
	// stats AND every engine's event counters at the warmup boundary, so
	// the fold and elision counts below match the stats' window.
	l1s := m.L1s[0].Scheme.(*protect.CPPCScheme)
	l2s := m.L2.Scheme.(*protect.CPPCScheme)
	l1Model := energy.New(l1cfg, l1s.CheckBitsPerGranule(), l1s.BitlineFactor())
	l2Model := energy.New(l2cfg, l2s.CheckBitsPerGranule(), l2s.BitlineFactor())
	for _, l1 := range m.L1s {
		ev := l1.Scheme.(*protect.CPPCScheme).Engine.Events
		r.FoldsL1 += ev.Folds
		r.ElidedL1 += ev.SilentStoresElided
		r.EnergyL1.Add(energy.CountElided(l1.Stats, l1Model, 1, ev.Folds, ev.SilentStoresElided))
		r.DirtyL1 += l1.C.DirtyFraction() / float64(cores)
	}
	l2ev := l2s.Engine.Events
	r.FoldsL2, r.ElidedL2 = l2ev.Folds, l2ev.SilentStoresElided
	r.EnergyL2 = energy.CountElided(m.L2.Stats, l2Model, l1cfg.BlockWords(), l2ev.Folds, l2ev.SilentStoresElided)
	r.EnergyBus = energy.CountCoherence(m.Stats, energy.NewBus(l1cfg.BlockWords()))
	return r, nil
}

// MulticorePoint is one (cores, sharedFrac) cell of the Sec. 7 sweep.
type MulticorePoint struct {
	Cores      int
	SharedFrac float64
}

// Section7Points returns the canonical Sec. 7 sweep matrix in row order:
// cores {1,2,4,8} by shared fraction {0, 0.3, 0.6}, with the redundant
// 1-core shared points dropped (a single core has nobody to share with).
// The first point (1 core, private) is the slowdown baseline. Both the
// in-process sweep and the daemon's shard planner expand through here.
func Section7Points() []MulticorePoint {
	var pts []MulticorePoint
	for _, cores := range []int{1, 2, 4, 8} {
		for _, sf := range []float64{0, 0.3, 0.6} {
			if cores == 1 && sf > 0 {
				continue
			}
			pts = append(pts, MulticorePoint{Cores: cores, SharedFrac: sf})
		}
	}
	return pts
}

// Section7Table renders the Sec. 7 sweep from per-cell results, which
// must be in Section7Points order (runs[0] is the slowdown and energy
// baseline). The output is byte-identical to the sequential sweep's. The
// energy columns price L1s+L2+bus over the measurement window; "energy
// vs 1 core" normalizes against the private single-core cell.
func Section7Table(runs []MulticoreRun) string {
	title := "Sec. 7: timed write-invalidate coherence vs. CPPC read-before-writes"
	if len(runs) > 0 && runs[0].Silent {
		title += " (silent-store elision)"
	}
	t := tables.New(title,
		"cores", "shared frac", "CPI", "slowdown", "RBW/store", "invalidations", "owner flushes", "dirty L1 avg",
		"energy (nJ)", "energy vs 1 core")
	var baseCPI, baseEnergy float64
	if len(runs) > 0 {
		baseCPI = runs[0].CPI
		baseEnergy = runs[0].TotalEnergyPJ()
	}
	for _, r := range runs {
		slowdown := 0.0
		if baseCPI > 0 {
			slowdown = r.CPI / baseCPI
		}
		// Guard the ratios: a halted or zero-budget cell has no stores and
		// no energy, and a NaN here would poison the rendered sweep.
		rbw := 0.0
		if r.L1.Stores > 0 {
			rbw = float64(r.L1.ReadBeforeWrite) / float64(r.L1.Stores)
		}
		eRatio := 0.0
		if baseEnergy > 0 {
			eRatio = r.TotalEnergyPJ() / baseEnergy
		}
		t.Addf(r.Cores, fmt.Sprintf("%.1f", r.SharedFrac),
			r.CPI, slowdown, rbw,
			r.Coherence.Invalidations, r.Coherence.OwnerFlushes,
			tables.Pct(r.DirtyL1),
			r.TotalEnergyPJ()/1e3, eRatio)
	}
	return t.String() +
		"the paper's hypothesis: invalidations remove dirty blocks, so RBW/store falls with sharing\n"
}

// Section7MulticoreCtx evaluates the paper's Sec. 7 multiprocessor
// hypothesis on the timed machine: write-invalidate coherence steals
// dirty blocks from their owners, so the read-before-write ratio — and
// with it CPPC's energy overhead — drops as write sharing rises, while
// the CPI column shows what bus occupancy and invalidation traffic cost.
// It renders the plain-CPPC sweep followed by the cppc-silent sweep, so
// the saved write+fold energy of elision is visible cell by cell at
// identical CPI.
func Section7MulticoreCtx(ctx context.Context, b Budget) (string, error) {
	prof, ok := trace.ProfileByName("gzip")
	if !ok {
		return "", fmt.Errorf("multicore: profile %q not found", "gzip")
	}
	var out string
	for _, silent := range []bool{false, true} {
		pts := Section7Points()
		runs := make([]MulticoreRun, 0, len(pts))
		for _, pt := range pts {
			r, err := MulticoreCellCtx(ctx, prof, pt.Cores, pt.SharedFrac, silent, b)
			if err != nil {
				return "", err
			}
			runs = append(runs, r)
		}
		if silent {
			out += "\n"
		}
		out += Section7Table(runs)
	}
	return out, nil
}
