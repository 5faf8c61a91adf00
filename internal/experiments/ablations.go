package experiments

import (
	"context"
	"fmt"

	"cppc/internal/cache"
	"cppc/internal/core"
	"cppc/internal/cpu"
	"cppc/internal/energy"
	"cppc/internal/protect"
	"cppc/internal/reliability"
	"cppc/internal/tables"
	"cppc/internal/trace"
)

// warmCPI runs b.Warmup then b.Measure instructions of src on c and
// returns the measure window's CPI. Statistics are not reset in
// between, so cache statistics read afterwards cover both windows.
func warmCPI(ctx context.Context, c *cpu.Core, src trace.Source, b Budget) (float64, error) {
	w, err := c.RunCtx(ctx, src, b.Warmup)
	if err != nil {
		return 0, err
	}
	m, err := c.RunCtx(ctx, src, b.Measure)
	if err != nil {
		return 0, err
	}
	return float64(m.Cycles-w.Cycles) / float64(m.Instructions), nil
}

// SinglePortAblation evaluates the Sec. 7 future-work question — "we will
// also evaluate single-ported caches and their impact on the
// read-before-write operations" — by re-running the Fig. 10 CPI
// comparison with the L1 read and write ports merged. The context is
// polled inside every simulation.
func SinglePortAblation(ctx context.Context, b Budget) (string, error) {
	t := tables.New("Sec. 7 ablation: single-ported L1 vs. split ports (CPI overhead over parity-1d)",
		"benchmark", "cppc split", "cppc single", "2d split", "2d single")
	run := func(p trace.Profile, mk cpu.SchemeFactory, single bool) (float64, error) {
		sys := cpu.NewSystem(mk, cpu.Parity1DFactory())
		defer sys.Release()
		cfg := cpu.Table1Config()
		cfg.SinglePorted = single
		c := cpu.NewCoreWithPort(cfg, sys.Port())
		return warmCPI(ctx, c, p.NewMemoGen(b.Seed), b)
	}
	for _, name := range []string{"crafty", "vortex", "swim"} {
		p, ok := trace.ProfileByName(name)
		if !ok {
			return "", fmt.Errorf("single-port ablation: profile %q not found", name)
		}
		var over [4]float64
		for i, cfg := range []struct {
			mk     cpu.SchemeFactory
			single bool
		}{
			{cpu.CPPCFactory(core.DefaultL1Config()), false},
			{cpu.CPPCFactory(core.DefaultL1Config()), true},
			{cpu.TwoDimFactory(), false},
			{cpu.TwoDimFactory(), true},
		} {
			base, err := run(p, cpu.Parity1DFactory(), cfg.single)
			if err != nil {
				return "", err
			}
			cpi, err := run(p, cfg.mk, cfg.single)
			if err != nil {
				return "", err
			}
			over[i] = cpi/base - 1
		}
		t.Addf(name,
			tables.Pct(over[0]), tables.Pct(over[1]),
			tables.Pct(over[2]), tables.Pct(over[3]))
	}
	return t.String() +
		"merging the ports raises every scheme's absolute CPI; the baseline becomes\n" +
		"port-bound, so 2D parity's relative overhead shrinks while CPPC's stolen\n" +
		"reads remain negligible in both designs\n", nil
}

// cancelPollAccesses is how often EarlyWritebackAblation's access loop
// polls its context.
const cancelPollAccesses = 4096

// EarlyWritebackAblation quantifies the related-work technique of [2, 15]
// (Sec. 2): periodically cleaning dirty blocks trades write-back energy
// for a smaller vulnerable population — which directly scales the
// baseline parity MTTF and shortens CPPC's exposure windows. The
// context is polled every cancelPollAccesses accesses.
func EarlyWritebackAblation(ctx context.Context, accesses int, seed int64) (string, error) {
	t := tables.New("Ablation: early write-back interval vs. dirty population",
		"interval", "dirty L1", "write-backs", "early WBs", "parity-1d MTTF (yr)")
	p, ok := trace.ProfileByName("gzip")
	if !ok {
		return "", fmt.Errorf("early-writeback ablation: profile %q not found", "gzip")
	}
	for _, interval := range []uint64{0, 512, 128, 32} {
		ccfg := cache.L1DConfig()
		c := cache.New(ccfg)
		mem := cache.NewMemory(32, 200)
		ct := protect.NewController(c, protect.MustCPPC(c, core.DefaultL1Config()), mem)
		ct.SetSampleInterval(64)
		ct.SetEarlyWriteback(interval, 8)

		gen := p.NewMemoGen(seed)
		var now uint64
		for i := 0; i < accesses; {
			if i%cancelPollAccesses == 0 {
				if err := ctx.Err(); err != nil {
					return "", err
				}
			}
			in := gen.Next()
			switch in.Op {
			case trace.OpLoad:
				now++
				i++
				ct.Load(in.Addr, now)
			case trace.OpStore:
				now++
				i++
				ct.Store(in.Addr, in.Addr, now)
			}
		}
		params := reliability.Params{
			FITPerBit: 0.001, AVF: 0.7, FreqHz: 3e9,
			TotalBits: ccfg.TotalBits(), DirtyFraction: c.DirtyFraction(),
			TavgCycles: 1828,
		}
		label := "off"
		if interval > 0 {
			label = fmt.Sprintf("%d", interval)
		}
		t.Addf(label, tables.Pct(c.DirtyFraction()), ct.Stats.WriteBack,
			ct.EarlyWriteBacks, fmt.Sprintf("%.0f", reliability.Parity1DMTTFYears(params)))
	}
	return t.String(), nil
}

// SilentStoreAblation renders the Fig. 11/12-style energy comparison for
// the cppc-silent scheme: both CPPC variants' L1 and L2 dynamic energy
// normalized to parity-1d, next to the fraction of stores elided. The
// elision is timing-neutral by construction (the compare rides the
// read-before-write the incremental check-bit path already performs), so
// the CPI ratio column must read 1.000 — the whole benefit is the
// skipped array writes and register folds. The context is polled inside
// every simulation.
func SilentStoreAblation(ctx context.Context, b Budget) (string, error) {
	t := tables.New("Fig. 11/12 ablation: silent-store elision (dynamic energy normalized to parity-1d)",
		"benchmark", "L1 cppc", "L1 cppc-silent", "L2 cppc", "L2 cppc-silent", "elided/store", "CPI silent/cppc")
	levelEnergy := func(r Run, id SchemeID, level int) float64 {
		var folds, elided uint64
		if isCPPC(id) {
			if level == 1 {
				folds, elided = r.Folds.L1, r.Elided.L1
			} else {
				folds, elided = r.Folds.L2, r.Elided.L2
			}
		}
		if level == 1 {
			return energy.CountElided(r.L1, l1EnergyModel(id), 1, folds, elided).Total()
		}
		return energy.CountElided(r.L2, l2EnergyModel(id), 4, folds, elided).Total()
	}
	for _, name := range []string{"gzip", "gcc", "mcf", "vpr"} {
		p, ok := trace.ProfileByName(name)
		if !ok {
			return "", fmt.Errorf("silent-store ablation: profile %q not found", name)
		}
		runs := map[SchemeID]Run{}
		for _, id := range []SchemeID{Parity1D, CPPC, CPPCSilent} {
			r, err := SimulateCtx(ctx, p, id, b)
			if err != nil {
				return "", fmt.Errorf("silent-store ablation %s/%s: %w", name, id, err)
			}
			runs[id] = r
		}
		baseL1 := levelEnergy(runs[Parity1D], Parity1D, 1)
		baseL2 := levelEnergy(runs[Parity1D], Parity1D, 2)
		norm := func(e, base float64) float64 {
			if base == 0 {
				return 0
			}
			return e / base
		}
		elidedFrac := 0.0
		if st := runs[CPPCSilent].L1.Stores; st > 0 {
			elidedFrac = float64(runs[CPPCSilent].Elided.L1) / float64(st)
		}
		cpiRatio := 0.0
		if runs[CPPC].CPI > 0 {
			cpiRatio = runs[CPPCSilent].CPI / runs[CPPC].CPI
		}
		t.Addf(name,
			norm(levelEnergy(runs[CPPC], CPPC, 1), baseL1),
			norm(levelEnergy(runs[CPPCSilent], CPPCSilent, 1), baseL1),
			norm(levelEnergy(runs[CPPC], CPPC, 2), baseL2),
			norm(levelEnergy(runs[CPPCSilent], CPPCSilent, 2), baseL2),
			tables.Pct(elidedFrac), cpiRatio)
	}
	return t.String() +
		"elision skips the data-array write and both register folds when the stored\n" +
		"value equals the resident one; detection outcomes are bit-identical because\n" +
		"equal R1/R2 contributions cancel in R1^R2\n", nil
}

// ICacheAblation quantifies the front-end model: Fig. 10's CPIs with the
// Table 1 L1I attached (instruction fetch through a 16KB direct-mapped
// parity-protected cache sharing the unified L2). Instructions are
// read-only, so parity alone fully protects them — the reason the paper's
// machinery targets the data side. The context is polled inside every
// simulation.
func ICacheAblation(ctx context.Context, b Budget) (string, error) {
	t := tables.New("Ablation: instruction-cache modeling (parity-1d data cache)",
		"benchmark", "CPI no L1I", "CPI with L1I", "L1I miss rate")
	for _, name := range []string{"gzip", "gcc", "swim"} {
		p, ok := trace.ProfileByName(name)
		if !ok {
			return "", fmt.Errorf("icache ablation: profile %q not found", name)
		}
		run := func(withIC bool) (cpi, missRate float64, err error) {
			sys := cpu.NewSystem(cpu.Parity1DFactory(), cpu.Parity1DFactory())
			defer sys.Release()
			c := cpu.NewCoreWithPort(cpu.Table1Config(), sys.Port())
			if withIC {
				c.SetICache(sys.L1I, 64<<10)
			}
			cpi, err = warmCPI(ctx, c, p.NewMemoGen(b.Seed), b)
			return cpi, sys.L1I.Stats.MissRate(), err
		}
		base, _, err := run(false)
		if err != nil {
			return "", err
		}
		with, mr, err := run(true)
		if err != nil {
			return "", err
		}
		t.Addf(name, base, with, tables.Pct(mr))
	}
	return t.String(), nil
}
