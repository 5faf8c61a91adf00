package main

// The campaign workload: accelerated-rate Monte-Carlo MTTF cells for
// parity-1d and CPPC plus the field-mix grid (every footprint × lifetime
// × rate point under every FieldMCSchemes scheme), with a trial-worker
// budget of one. It runs the fault plane, the trial executor and its
// arenas, and the verify/correct paths of every scheme, and no OoO core
// and no trace generator: a gain on the uniproc side should not move it,
// and the reverse.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"cppc/internal/cache"
	"cppc/internal/core"
	"cppc/internal/experiments"
	"cppc/internal/fault"
	"cppc/internal/protect"
)

// Trials per cell. A CPPC Monte-Carlo trial lasts anywhere up to the
// 200k-access horizon (~40 ms), so a pass runs two CPPC cells of eight
// trials each on disjoint seeds: the slowest cells of a pass are two, not
// one, and each averages enough trials that its time hardly depends on
// the seed. A parity-1d trial fails within a few thousand accesses; a
// field-mix trial is ~3 ms.
var campaignMCTrials = map[string]int{"parity-1d": 8, "cppc": 8}

const (
	mcCells             = 2
	campaignFieldTrials = 2
)

// mcSeed is the first trial seed of the Monte-Carlo cells, the same at
// every --seed and in every pass. A CPPC trial lasts anywhere from a few
// thousand accesses to the horizon, so an eight-trial cell's host time
// swung fourfold with its seeds (56–226 ms): with seeds that followed
// --seed, the spread between runs would measure the seeds, not the code.
// The field-mix cells, whose trials are short and alike, follow --seed
// and the pass.
const mcSeed = 1

// The Monte-Carlo campaign constants of experiments.MonteCarloCellCtx,
// which the traced pass calls fault.MonteCarloMTTFCtx with directly. The
// traced-vs-untraced digest check fails if they drift.
const (
	mcLambda  = 2e-7
	mcHorizon = 200_000
)

type campaign struct {
	seed int64
	acc  layerSums
}

// newCampaign resolves every grid point and scheme, so a bad name fails
// before measuring, and builds (then releases) one campaign cache under
// each scheme, so the construction pools and per-geometry tables are warm
// before the first timed cell.
func newCampaign(seed int64) (bench, error) {
	for _, pt := range experiments.FieldMCPoints() {
		if _, _, err := fieldModel(pt); err != nil {
			return nil, err
		}
	}
	for _, s := range experiments.FieldMCSchemes() {
		mk, err := fieldScheme(s)
		if err != nil {
			return nil, err
		}
		c, mem := cache.New(fault.CampaignCacheConfig()), cache.NewMemory(32, 100)
		protect.NewController(c, mk(c), mem)
		c.Release()
		mem.Release()
	}
	return &campaign{seed: seed}, nil
}

func (c *campaign) close() error               { return nil }
func (c *campaign) layers() map[string]float64 { return c.acc.mean() }

func (c *campaign) pass(ctx context.Context, p int, traced bool) (passResult, error) {
	seed := passSeed(c.seed, p)
	var r passResult
	var ly *campLayers
	if traced {
		ly = newCampLayers()
	}
	h := sha256.New()
	requested := 0
	before := fault.TrialsExecuted()
	item := func(t0 time.Time, ok bool, what string) {
		r.lat = append(r.lat, float64(time.Since(t0).Nanoseconds())/1e6)
		r.items++
		if !ok {
			r.failed++
			r.notes = append(r.notes, what)
		}
	}

	for i := 0; i < mcCells; i++ {
		for _, s := range experiments.MonteCarloSchemes() {
			trials := campaignMCTrials[s]
			cellSeed := mcSeed + int64(i)*1000 // trial t draws stream cellSeed+t
			t0 := time.Now()
			var cell experiments.MonteCarloCell
			var err error
			if traced {
				cell, err = ly.monteCarlo(ctx, s, trials, cellSeed)
			} else {
				cell, err = experiments.MonteCarloCellCtx(ctx, s, trials, cellSeed)
			}
			if err != nil {
				return r, err
			}
			requested += trials
			r.work += float64(trials)
			item(t0, cell.Res.Trials == trials, fmt.Sprintf("montecarlo %s ran %d of %d trials", s, cell.Res.Trials, trials))
			fmt.Fprintf(h, "%#v\n", cell)
		}
	}
	for _, pt := range experiments.FieldMCPoints() {
		for _, s := range experiments.FieldMCSchemes() {
			t0 := time.Now()
			var cell experiments.FieldMCCell
			var err error
			if traced {
				cell, err = ly.fieldMC(ctx, s, pt, campaignFieldTrials, seed)
			} else {
				cell, err = experiments.FieldMCCellCtx(ctx, s, pt, campaignFieldTrials, seed)
			}
			if err != nil {
				return r, err
			}
			requested += campaignFieldTrials
			r.work += campaignFieldTrials
			item(t0, cell.Counts.Total() == campaignFieldTrials,
				fmt.Sprintf("fieldmc %s %s ran %d of %d trials", s, pt, cell.Counts.Total(), campaignFieldTrials))
			fmt.Fprintf(h, "%#v\n", cell)
		}
	}
	if ran := fault.TrialsExecuted() - before; ran != int64(requested) {
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf("executor ran %d trials, %d requested", ran, requested))
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	if traced {
		c.acc.add(ly.metrics(requested))
	}
	return r, nil
}

// fieldScheme maps a FieldMCSchemes name to its scheme constructor, as
// experiments.FieldMCCellCtx configures it.
func fieldScheme(name string) (fault.SchemeFactory, error) {
	cppc := func(cfg core.Config) fault.SchemeFactory {
		return func(c *cache.Cache) protect.Scheme { return protect.MustCPPC(c, cfg) }
	}
	switch name {
	case "parity-1d":
		return func(c *cache.Cache) protect.Scheme { return protect.NewParity1D(c, 8) }, nil
	case "parity-2d":
		return func(c *cache.Cache) protect.Scheme { return protect.NewTwoDim(c, 8) }, nil
	case "secded":
		return func(c *cache.Cache) protect.Scheme { return protect.NewSECDED(c, true) }, nil
	case "cppc":
		return cppc(core.DefaultL1Config()), nil
	case "cppc-noshift":
		return cppc(core.Config{ParityDegree: 8, RegisterPairs: 1, ByteShifting: false}), nil
	case "cppc-2pair":
		return cppc(core.Config{ParityDegree: 8, RegisterPairs: 2, ByteShifting: true}), nil
	}
	return nil, fmt.Errorf("unknown fieldmc scheme %q", name)
}

// fieldModel maps a grid point to the fault model and per-trial fault
// count, as experiments.FieldMCCellCtx does.
func fieldModel(pt experiments.FieldPoint) (fault.Model, int, error) {
	foot, err := fault.ParseFootprint(pt.Footprint)
	if err != nil {
		return fault.Model{}, 0, err
	}
	life, err := fault.ParseLifetime(pt.Lifetime)
	if err != nil {
		return fault.Model{}, 0, err
	}
	faults := map[string]int{"x1": 1, "x4": 4}[pt.Rate]
	if faults == 0 {
		return fault.Model{}, 0, fmt.Errorf("unknown rate %q", pt.Rate)
	}
	return fault.Model{Foot: foot, Life: life}, faults, nil
}

// campLayers holds the traced campaign's clocks: one scheme clock per
// (campaign kind, scheme), and host time per campaign kind.
type campLayers struct {
	wall      map[string]float64           // "mc" | "fieldmc" → host seconds in cells
	scheme    map[string]map[string]*clock // kind → scheme → clock
	corrected int
	fieldRun  int
}

func newCampLayers() *campLayers {
	return &campLayers{
		wall:   map[string]float64{},
		scheme: map[string]map[string]*clock{"mc": {}, "fieldmc": {}},
	}
}

// wrap returns mk with every scheme it builds wrapped in kind's clock for
// that scheme.
func (ly *campLayers) wrap(kind, scheme string, mk fault.SchemeFactory) fault.SchemeFactory {
	clk := ly.scheme[kind][scheme]
	if clk == nil {
		clk = newClock(sampleEvery)
		ly.scheme[kind][scheme] = clk
	}
	return func(c *cache.Cache) protect.Scheme { return wrapScheme(mk(c), clk) }
}

// monteCarlo is experiments.MonteCarloCellCtx over a wrapped factory.
func (ly *campLayers) monteCarlo(ctx context.Context, scheme string, trials int, seed int64) (experiments.MonteCarloCell, error) {
	mk, err := fieldScheme(scheme)
	if err != nil {
		return experiments.MonteCarloCell{}, err
	}
	t0 := time.Now()
	res, err := fault.MonteCarloMTTFCtx(ctx, ly.wrap("mc", scheme, mk), mcLambda, trials, mcHorizon, seed)
	ly.wall["mc"] += time.Since(t0).Seconds()
	if err != nil {
		return experiments.MonteCarloCell{}, err
	}
	cell := experiments.MonteCarloCell{Scheme: scheme, Res: res}
	if scheme == "cppc" {
		cell.Analytic = fault.AnalyticDoubleFaultMTTFAccesses(mcLambda, res.MeanDirtyBits, res.MeanTavgAccesses, 8)
	} else {
		cell.Analytic = fault.AnalyticParityMTTFAccesses(mcLambda, res.MeanDirtyBits)
	}
	return cell, nil
}

// fieldMC is experiments.FieldMCCellCtx over a wrapped factory.
func (ly *campLayers) fieldMC(ctx context.Context, scheme string, pt experiments.FieldPoint, trials int, seed int64) (experiments.FieldMCCell, error) {
	mk, err := fieldScheme(scheme)
	if err != nil {
		return experiments.FieldMCCell{}, err
	}
	m, faults, err := fieldModel(pt)
	if err != nil {
		return experiments.FieldMCCell{}, err
	}
	t0 := time.Now()
	counts, err := fault.RunModelTrialsCtx(ctx, fault.CampaignCacheConfig(), ly.wrap("fieldmc", scheme, mk), m, faults, trials, seed)
	ly.wall["fieldmc"] += time.Since(t0).Seconds()
	if err != nil {
		return experiments.FieldMCCell{}, err
	}
	ly.corrected += counts.Corrected
	ly.fieldRun += counts.Total()
	return experiments.FieldMCCell{Scheme: scheme, Point: pt, Counts: counts}, nil
}

// metrics turns one traced pass into per-layer metrics. The fault layer
// is the campaign shell — workload, injection, probing, and the
// controller and cache it drives — so its self time is the cells' host
// time minus the schemes'.
func (ly *campLayers) metrics(trials int) map[string]float64 {
	m := map[string]float64{
		"fault.trials":          float64(trials),
		"fault.corrected_ratio": ratio(ly.corrected, ly.fieldRun),
	}
	var schemeTotal, calls float64
	for _, kind := range []string{"mc", "fieldmc"} {
		var cost float64
		for s, clk := range ly.scheme[kind] {
			cost += clk.cost()
			calls += float64(clk.calls)
			m["scheme.campaign."+s+".self_s"] += clk.seconds()
			schemeTotal += clk.seconds()
		}
		m["fault."+kind+".self_s"] = ly.wall[kind] - cost
	}
	m["fault.self_s"] = m["fault.mc.self_s"] + m["fault.fieldmc.self_s"]
	m["scheme.campaign.calls"] = calls
	for k, v := range shares(map[string]float64{"fault": m["fault.self_s"], "scheme.campaign": schemeTotal}) {
		m["share."+k] = v
	}
	return m
}
