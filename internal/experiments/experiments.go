// Package experiments regenerates every table and figure in the paper's
// evaluation (Sec. 6) plus the quantitative claims of Secs. 4.6-4.8. It
// is the single source shared by cmd/repro, the benchmark harness and the
// test suite, so all three report identical numbers for a given
// instruction budget and seed.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"cppc/internal/cache"
	"cppc/internal/core"
	"cppc/internal/cpu"
	"cppc/internal/energy"
	"cppc/internal/protect"
	"cppc/internal/reliability"
	"cppc/internal/tables"
	"cppc/internal/trace"
)

// Budget scales every simulation-based experiment.
type Budget struct {
	Warmup  int // instructions to warm the hierarchy before measuring
	Measure int // instructions measured
	Seed    int64
}

// DefaultBudget is the cmd/repro default: big enough for stable CPI and
// dirty-occupancy numbers, small enough to run all experiments in a few
// minutes.
func DefaultBudget() Budget { return Budget{Warmup: 500_000, Measure: 1_500_000, Seed: 1} }

// QuickBudget keeps test and benchmark runtime low.
func QuickBudget() Budget { return Budget{Warmup: 150_000, Measure: 300_000, Seed: 1} }

// SchemeID names the evaluated protections: the paper's four, plus the
// silent-store-elision CPPC variant (an ablation outside the committed
// figure matrix — SuiteCells stays at the paper's four schemes).
type SchemeID int

const (
	Parity1D SchemeID = iota
	CPPC
	SECDED
	TwoDim
	CPPCSilent
)

func (s SchemeID) String() string {
	return [...]string{"parity-1d", "cppc", "secded", "parity-2d", "cppc-silent"}[s]
}

// schemeFactories returns the (L1, L2) factories for one scheme, in the
// evaluated configurations of Sec. 6.
func schemeFactories(id SchemeID) (l1, l2 cpu.SchemeFactory) {
	switch id {
	case Parity1D:
		return cpu.Parity1DFactory(), cpu.Parity1DFactory()
	case CPPC:
		return cpu.CPPCFactory(core.DefaultL1Config()), cpu.CPPCFactory(core.DefaultL2Config())
	case SECDED:
		return cpu.SECDEDFactory(true), cpu.SECDEDFactory(true)
	case TwoDim:
		return cpu.TwoDimFactory(), cpu.TwoDimFactory()
	case CPPCSilent:
		return cpu.CPPCFactory(core.SilentL1Config()), cpu.CPPCFactory(core.SilentL2Config())
	}
	panic("unknown scheme")
}

// isCPPC reports whether a scheme carries a CPPC engine whose event
// counters (folds, elided stores) feed the energy model.
func isCPPC(id SchemeID) bool { return id == CPPC || id == CPPCSilent }

// Run is one benchmark simulated under one scheme at both levels.
type Run struct {
	Bench  string
	Scheme SchemeID
	CPI    float64
	L1     cache.Stats
	L2     cache.Stats
	L1Gran struct{ Dirty, Tavg float64 }
	L2Gran struct{ Dirty, Tavg float64 }
	Folds  struct{ L1, L2 uint64 } // CPPC register updates
	Elided struct{ L1, L2 uint64 } // silent stores elided (cppc-silent)
}

// SimulateCtx runs one benchmark under one scheme and collects
// everything the figures need. The context is polled inside the
// instruction loop, so even a multi-million-instruction cell aborts
// promptly.
func SimulateCtx(ctx context.Context, prof trace.Profile, id SchemeID, b Budget) (Run, error) {
	return SimulateSourceCtx(ctx, prof.Name, prof.NewMemoGen(b.Seed), id, b)
}

// SimulateSourceCtx runs any instruction source (a recorded trace file,
// say) under one scheme, reporting the run under the given benchmark
// name. The context is polled inside the instruction loop.
func SimulateSourceCtx(ctx context.Context, name string, src trace.Source, id SchemeID, b Budget) (Run, error) {
	l1f, l2f := schemeFactories(id)
	sys := cpu.NewSystem(l1f, l2f)
	defer sys.Release()
	res, err := cpu.RunSourceWarmCtx(ctx, src, b.Warmup, b.Measure, sys)
	if err != nil {
		return Run{}, err
	}
	r := Run{Bench: name, Scheme: id, CPI: res.CPI, L1: sys.L1().Stats, L2: sys.L2().Stats}
	r.L1Gran.Dirty = sys.L1().C.DirtyFraction()
	r.L1Gran.Tavg = sys.L1().C.Tavg()
	r.L2Gran.Dirty = sys.L2().C.DirtyFraction()
	r.L2Gran.Tavg = sys.L2().C.Tavg()
	if isCPPC(id) {
		// Measure-window folds only: RunSourceWarmCtx reset the engine
		// events together with the cache stats at the warmup boundary.
		l1e := sys.L1().Scheme.(*protect.CPPCScheme).Engine.Events
		l2e := sys.L2().Scheme.(*protect.CPPCScheme).Engine.Events
		r.Folds.L1, r.Folds.L2 = l1e.Folds, l2e.Folds
		r.Elided.L1, r.Elided.L2 = l1e.SilentStoresElided, l2e.SilentStoresElided
	}
	return r, nil
}

// Suite holds one Run per (benchmark, scheme).
type Suite struct {
	Budget Budget
	Runs   map[string]map[SchemeID]Run // bench -> scheme -> run
	Order  []string                    // benchmark order
}

// SuiteCell names one cell of the suite matrix: one benchmark under one
// scheme. It is the shared unit of work between the in-process
// RunSuiteCtx path and the daemon's shard planner — both expand the
// matrix through SuiteCells, so there is exactly one definition of what
// the suite computes.
type SuiteCell struct {
	Bench  string
	Scheme SchemeID
}

// SuiteCells returns the full (benchmark, scheme) matrix in canonical
// order: benchmarks in trace.Profiles() order, schemes in SchemeID order.
func SuiteCells() []SuiteCell {
	profiles := trace.Profiles()
	ids := []SchemeID{Parity1D, CPPC, SECDED, TwoDim}
	cells := make([]SuiteCell, 0, len(profiles)*len(ids))
	for _, p := range profiles {
		for _, id := range ids {
			cells = append(cells, SuiteCell{Bench: p.Name, Scheme: id})
		}
	}
	return cells
}

// NewSuite returns an empty suite with the benchmark order prefilled, so
// cells can be added in any completion order and the rendered figures
// stay byte-identical to a sequential run.
func NewSuite(b Budget) *Suite {
	s := &Suite{Budget: b, Runs: map[string]map[SchemeID]Run{}}
	for _, p := range trace.Profiles() {
		s.Order = append(s.Order, p.Name)
		s.Runs[p.Name] = map[SchemeID]Run{}
	}
	return s
}

// Add records one completed cell.
func (s *Suite) Add(run Run) { s.Runs[run.Bench][run.Scheme] = run }

// SuiteOptions tunes how RunSuiteCtx schedules the experiment matrix.
type SuiteOptions struct {
	// Parallel bounds how many (benchmark, scheme) cells simulate
	// concurrently; values <= 0 mean runtime.GOMAXPROCS(0).
	Parallel int
	// OnProgress, when non-nil, is called after each completed cell with
	// the number of finished cells and the matrix size. Calls are
	// serialized under an internal lock, so the callback must be quick
	// and must not call back into the suite.
	OnProgress func(done, total int)
}

// RunSuiteCtx simulates every benchmark under every scheme. The 60
// (benchmark, scheme) runs are independent, so they execute in parallel,
// with a counting semaphore capping concurrent cells at opt.Parallel;
// results are deterministic for a given budget and seed. On cancellation
// the partial suite is discarded and the first error (always the
// context's) is returned.
func RunSuiteCtx(ctx context.Context, b Budget, opt SuiteOptions) (*Suite, error) {
	cells := SuiteCells()
	s := NewSuite(b)

	par := opt.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	total := len(cells)
	sem := make(chan struct{}, par)
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		done     int
		firstErr error
	)
	for _, cell := range cells {
		p, ok := trace.ProfileByName(cell.Bench)
		if !ok {
			return nil, fmt.Errorf("suite: profile %q not found", cell.Bench)
		}
		wg.Add(1)
		go func(p trace.Profile, id SchemeID) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				mu.Lock()
				if firstErr == nil {
					firstErr = ctx.Err()
				}
				mu.Unlock()
				return
			}
			defer func() { <-sem }()
			run, err := SimulateCtx(ctx, p, id, b)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			s.Add(run)
			done++
			if opt.OnProgress != nil {
				opt.OnProgress(done, total)
			}
		}(p, cell.Scheme)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return s, nil
}

// Table1 renders the evaluation parameters (the paper's Table 1).
func Table1() string {
	t := tables.New("Table 1: evaluation parameters", "parameter", "value")
	cfg := cpu.Table1Config()
	t.Addf("functional units", fmt.Sprintf("%d int ALU, %d int mul/div, %d FP ALU, %d FP mul/div",
		cfg.IntALU, cfg.IntMul, cfg.FPALU, cfg.FPMul))
	t.Addf("LSQ / RUU size", fmt.Sprintf("%d / %d instructions", cfg.LSQSize, cfg.RUUSize))
	t.Addf("issue width", fmt.Sprintf("%d instructions/cycle", cfg.IssueWidth))
	t.Addf("frequency", fmt.Sprintf("%.0f GHz", cfg.FreqHz/1e9))
	l1 := cache.L1DConfig()
	t.Addf("L1 data cache", fmt.Sprintf("%dKB, %d-way, %dB lines, %d cycles",
		l1.SizeBytes/1024, l1.Ways, l1.BlockBytes, l1.HitLatencyCycles))
	l2 := cache.L2Config()
	t.Addf("L2 cache", fmt.Sprintf("%dMB unified, %d-way, %dB lines, %d cycles",
		l2.SizeBytes>>20, l2.Ways, l2.BlockBytes, l2.HitLatencyCycles))
	li := cache.L1IConfig()
	t.Addf("L1 instruction cache", fmt.Sprintf("%dKB, %d-way, %dB lines, %d cycle",
		li.SizeBytes/1024, li.Ways, li.BlockBytes, li.HitLatencyCycles))
	t.Addf("feature size", "32nm")
	return t.String()
}

// Figure10 renders CPIs normalized to the one-dimensional-parity
// baseline (the paper's Fig. 10: CPPC ~+0.3% average, 2D parity ~+1.7%
// average and up to 6.9%).
func (s *Suite) Figure10() string { return s.figure10Table().String() }

// Figure10CSV is Figure10 as comma-separated values for plotting.
func (s *Suite) Figure10CSV() string { return s.figure10Table().CSV() }

func (s *Suite) figure10Table() *tables.Table {
	t := tables.New("Figure 10: normalized CPI of L1 protection schemes (baseline = parity-1d)",
		"benchmark", "parity-1d", "cppc", "parity-2d")
	var sumC, sumT float64
	for _, b := range s.Order {
		base := s.Runs[b][Parity1D].CPI
		c := s.Runs[b][CPPC].CPI / base
		d := s.Runs[b][TwoDim].CPI / base
		sumC += c
		sumT += d
		t.Addf(b, 1.0, c, d)
	}
	n := float64(len(s.Order))
	t.Addf("average", 1.0, sumC/n, sumT/n)
	return t
}

// l1EnergyModel builds the per-scheme L1 energy model.
func l1EnergyModel(id SchemeID) *energy.Model {
	cfg := cache.L1DConfig()
	switch id {
	case SECDED:
		return energy.New(cfg, 8, 8) // (72,64) code, 8-way bit interleaving
	default:
		return energy.New(cfg, 8, 1) // 8 interleaved parity bits per word
	}
}

// l2EnergyModel builds the per-scheme L2 energy model (block granules).
func l2EnergyModel(id SchemeID) *energy.Model {
	cfg := cache.L2Config()
	switch id {
	case SECDED:
		return energy.New(cfg, 10, 8) // (266,256) block code, interleaved
	default:
		return energy.New(cfg, 8, 1) // 8 interleaved parity bits per block
	}
}

// energyRow computes one benchmark's normalized energies at one level.
func (s *Suite) energyRow(bench string, level int) (vals [4]float64) {
	for i, id := range []SchemeID{Parity1D, CPPC, SECDED, TwoDim} {
		run := s.Runs[bench][id]
		var rep energy.Report
		if level == 1 {
			folds := uint64(0)
			if id == CPPC {
				folds = run.Folds.L1
			}
			rep = energy.Count(run.L1, l1EnergyModel(id), 1, folds)
		} else {
			folds := uint64(0)
			if id == CPPC {
				folds = run.Folds.L2
			}
			rep = energy.Count(run.L2, l2EnergyModel(id), 4, folds)
		}
		vals[i] = rep.Total()
	}
	base := vals[0]
	for i := range vals {
		vals[i] /= base
	}
	return vals
}

// Figure11 renders normalized L1 dynamic energy (paper: CPPC ~1.14,
// SECDED ~1.42, 2D ~1.70).
func (s *Suite) Figure11() string { return s.energyFigure(1, "Figure 11", "L1").String() }

// Figure12 renders normalized L2 dynamic energy (paper: CPPC ~1.07,
// SECDED ~1.68, 2D ~1.75, with mcf blowing up under 2D).
func (s *Suite) Figure12() string { return s.energyFigure(2, "Figure 12", "L2").String() }

// Figure11CSV and Figure12CSV export the energy series for plotting.
func (s *Suite) Figure11CSV() string { return s.energyFigure(1, "Figure 11", "L1").CSV() }
func (s *Suite) Figure12CSV() string { return s.energyFigure(2, "Figure 12", "L2").CSV() }

func (s *Suite) energyFigure(level int, fig, lvl string) *tables.Table {
	t := tables.New(fmt.Sprintf("%s: normalized %s dynamic energy (baseline = parity-1d)", fig, lvl),
		"benchmark", "parity-1d", "cppc", "secded", "parity-2d")
	var sum [4]float64
	for _, b := range s.Order {
		v := s.energyRow(b, level)
		for i := range sum {
			sum[i] += v[i]
		}
		t.Addf(b, v[0], v[1], v[2], v[3])
	}
	n := float64(len(s.Order))
	t.Addf("average", sum[0]/n, sum[1]/n, sum[2]/n, sum[3]/n)
	return t
}

// Table2Values aggregates the measured dirty fractions and Tavg across
// benchmarks (the paper's Table 2: L1 16% / 1828 cycles, L2 35% / 378997
// cycles).
type Table2Values struct {
	L1Dirty, L2Dirty float64
	L1Tavg, L2Tavg   float64
}

// Table2 computes the measured averages from the parity baseline runs.
func (s *Suite) Table2() Table2Values {
	var v Table2Values
	n := float64(len(s.Order))
	for _, b := range s.Order {
		run := s.Runs[b][Parity1D]
		v.L1Dirty += run.L1Gran.Dirty / n
		v.L2Dirty += run.L2Gran.Dirty / n
		v.L1Tavg += run.L1Gran.Tavg / n
		v.L2Tavg += run.L2Gran.Tavg / n
	}
	return v
}

// Table2String renders measured-vs-paper Table 2.
func (s *Suite) Table2String() string {
	v := s.Table2()
	t := tables.New("Table 2: dirty-data parameters (measured vs. paper)",
		"parameter", "measured", "paper")
	t.Addf("L1 dirty fraction", tables.Pct(v.L1Dirty), "16%")
	t.Addf("L2 dirty fraction", tables.Pct(v.L2Dirty), "35%")
	t.Addf("L1 Tavg (cycles)", fmt.Sprintf("%.0f", v.L1Tavg), "1828")
	t.Addf("L2 Tavg (cycles)", fmt.Sprintf("%.0f", v.L2Tavg), "378997")
	return t.String()
}

// Table3 renders the MTTF comparison, both with the paper's Table 2
// inputs and with this run's measured inputs.
func (s *Suite) Table3() string {
	meas := s.Table2()
	mkParams := func(total int, dirty, tavg float64) reliability.Params {
		return reliability.Params{
			FITPerBit: 0.001, AVF: 0.7, FreqHz: 3e9,
			TotalBits: total, DirtyFraction: dirty, TavgCycles: tavg,
		}
	}
	paperL1, paperL2 := reliability.PaperL1Params(), reliability.PaperL2Params()
	measL1 := mkParams(32*1024*8, meas.L1Dirty, meas.L1Tavg)
	measL2 := mkParams(1024*1024*8, meas.L2Dirty, meas.L2Tavg)

	t := tables.New("Table 3: MTTF against temporal multi-bit errors (years)",
		"cache", "L1 (paper inputs)", "L1 (measured)", "L2 (paper inputs)", "L2 (measured)")
	t.Addf("parity-1d",
		tables.Sci(reliability.Parity1DMTTFYears(paperL1)),
		tables.Sci(reliability.Parity1DMTTFYears(measL1)),
		tables.Sci(reliability.Parity1DMTTFYears(paperL2)),
		tables.Sci(reliability.Parity1DMTTFYears(measL2)))
	cd := reliability.CPPCDomains(8, 1)
	t.Addf("cppc",
		tables.Sci(reliability.DoubleFaultMTTFYears(paperL1, cd)),
		tables.Sci(reliability.DoubleFaultMTTFYears(measL1, cd)),
		tables.Sci(reliability.DoubleFaultMTTFYears(paperL2, cd)),
		tables.Sci(reliability.DoubleFaultMTTFYears(measL2, cd)))
	t.Addf("secded",
		tables.Sci(reliability.DoubleFaultMTTFYears(paperL1, reliability.SECDEDDomains(paperL1, 64))),
		tables.Sci(reliability.DoubleFaultMTTFYears(measL1, reliability.SECDEDDomains(measL1, 64))),
		tables.Sci(reliability.DoubleFaultMTTFYears(paperL2, reliability.SECDEDDomains(paperL2, 256))),
		tables.Sci(reliability.DoubleFaultMTTFYears(measL2, reliability.SECDEDDomains(measL2, 256))))
	return t.String() +
		"paper reports: parity 4490 / 64 years; CPPC 8.02e21 / 8.07e15; SECDED 6.2e23 / 1.1e19\n"
}

// Section47 renders the temporal-aliasing MTTF versus register pairs
// (paper: 4.19e20 years for the evaluated L2 with one pair).
func Section47() string {
	t := tables.New("Sec. 4.7: temporal-aliasing SDC MTTF vs. register pairs (evaluated L2)",
		"pairs", "alias bits", "MTTF (years)")
	p := reliability.PaperL2Params()
	for _, pairs := range []int{1, 2, 4, 8} {
		bits := reliability.AliasBitsForPairs(pairs)
		if bits == 0 {
			t.Addf(pairs, bits, "eliminated")
			continue
		}
		t.Addf(pairs, bits, tables.Sci(reliability.AliasingMTTFYears(p, bits)))
	}
	return t.String() + "paper reports 4.19e20 years with one pair\n"
}

// Section48 renders the barrel-shifter critical-path argument, plus the
// Sec. 3.2/5 argument that the recovery procedure's cost is ignorable:
// a full recovery sweep reads every cache row once, which takes
// microseconds, and it happens once per MTTF.
func Section48() string {
	t := tables.New("Sec. 4.8: barrel shifter vs. cache access", "quantity", "value")
	l1 := energy.New(cache.L1DConfig(), 8, 1)
	t.Addf("barrel shifter delay", fmt.Sprintf("%.3f ns", energy.BarrelShifterDelayNs()))
	t.Addf("L1 access time", fmt.Sprintf("%.3f ns", l1.AccessTimeNs()))
	t.Addf("fold energy (word)", fmt.Sprintf("%.2f pJ", energy.FoldEnergy(1)))
	t.Addf("L1 read energy", fmt.Sprintf("%.1f pJ", l1.Read(1)))

	// Recovery cost: pipelined row reads of the whole array plus the XOR
	// folding, at the Table 1 clock.
	cfg := cpu.Table1Config()
	sweep := func(c cache.Config) (cycles uint64, us float64, perYear float64, mttf float64) {
		rows := uint64(c.Layout().Rows())
		cycles = rows + uint64(c.HitLatencyCycles)
		us = float64(cycles) / cfg.FreqHz * 1e6
		var p reliability.Params
		if c.SizeBytes >= 1<<20 {
			p = reliability.PaperL2Params()
		} else {
			p = reliability.PaperL1Params()
		}
		// Recoveries fire roughly once per detected fault: the parity-MTTF
		// rate bounds it from above.
		mttf = reliability.Parity1DMTTFYears(p)
		perYear = 1 / mttf
		return
	}
	for _, c := range []cache.Config{cache.L1DConfig(), cache.L2Config()} {
		cycles, us, perYear, _ := sweep(c)
		t.Addf(fmt.Sprintf("%s recovery sweep", c.Name),
			fmt.Sprintf("%d cycles (%.2f us), expected %.2e sweeps/year", cycles, us, perYear))
	}
	return t.String() +
		"a microsecond sweep a few times per millennium: recovery cost is ignorable (Sec. 3.2)\n"
}
