package main

// The uniproc workload: Fig. 10 single-core cells, one at a time through
// experiments.SimulateCtx. It drives the whole trace → cpu → protect →
// scheme → cache chain and no fault or service code. The profile mix
// pairs a cache-friendly profile (crafty), a store-heavy one (vortex), a
// miss-heavy one (mcf) and two L2-pressure profiles (swim, bzip2), so a
// store-path gain that costs loads shows up, and every cell runs under
// all four schemes, block SECDED included.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"cppc/internal/cache"
	"cppc/internal/core"
	"cppc/internal/cpu"
	"cppc/internal/experiments"
	"cppc/internal/protect"
	"cppc/internal/trace"
)

var (
	uniprocProfiles = []string{"crafty", "vortex", "mcf", "swim", "bzip2"}
	uniprocSchemes  = []experiments.SchemeID{experiments.Parity1D, experiments.CPPC, experiments.SECDED, experiments.TwoDim}
)

// uniprocBudget is one cell's instruction budget. Warmup is a quarter of
// the cell, as in the repro budgets, and the whole cell fits the trace
// memo's per-stream prefix, so the first scheme of a profile generates
// the stream and the other three replay it, as in a repro suite. Cells
// are kept short, so a run has many passes and each cell many chances to
// meet a quiet moment of the host for its floor.
var uniprocBudget = experiments.Budget{Warmup: 30_000, Measure: 90_000}

type uniproc struct {
	seed     int64
	profiles []trace.Profile
	acc      layerSums // per-layer metrics over traced passes
}

// newUniproc resolves the profiles and builds (then releases) an L1 data
// cache under every scheme, so the per-geometry tables are ready before
// the first timed cell. The 1 MB L2 arrays are left to the first pass:
// clearing them costs whatever the host's memory bandwidth allows at the
// time, which would make the set-up time swing between runs.
func newUniproc(seed int64) (bench, error) {
	u := &uniproc{seed: seed}
	for _, name := range uniprocProfiles {
		p, ok := trace.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", name)
		}
		u.profiles = append(u.profiles, p)
	}
	for _, id := range uniprocSchemes {
		mkL1, _ := levelSchemes(id)
		c, mem := cache.New(cache.L1DConfig()), cache.NewMemory(32, 200)
		protect.NewController(c, mkL1(c), mem)
		c.Release()
		mem.Release()
	}
	return u, nil
}

func (u *uniproc) close() error { return nil }

// passSeed derives pass p's input seed from the workload seed. Every
// pass draws fresh trace streams, so each pass pays trace generation
// the same way the first one does.
func passSeed(seed int64, p int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(p)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x>>2) + 1
}

func (u *uniproc) pass(ctx context.Context, p int, traced bool) (passResult, error) {
	b := uniprocBudget
	b.Seed = passSeed(u.seed, p)
	var r passResult
	var ly *uniLayers
	if traced {
		ly = newUniLayers()
	}
	h := sha256.New()
	for _, prof := range u.profiles {
		cpi := map[experiments.SchemeID]float64{}
		for _, id := range uniprocSchemes {
			t0 := time.Now()
			var run experiments.Run
			var err error
			if traced {
				run, err = ly.simulate(ctx, prof, id, b)
			} else {
				run, err = experiments.SimulateCtx(ctx, prof, id, b)
			}
			r.lat = append(r.lat, float64(time.Since(t0).Nanoseconds())/1e6)
			r.items++
			if err != nil {
				return r, err
			}
			r.work += float64(b.Warmup + b.Measure)
			cpi[id] = run.CPI
			fmt.Fprintf(h, "%#v\n", run)
		}
		if note := checkCPIOrder(prof.Name, cpi); note != "" {
			r.failed++
			r.notes = append(r.notes, note)
		}
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	if traced {
		u.acc.add(ly.metrics())
	}
	return r, nil
}

// checkCPIOrder checks the seed-independent scheme ordering of Fig. 10:
// no scheme is faster than the unprotected-correction baseline, and
// CPPC, whose read-before-write steals idle read-port cycles, is never
// slower than 2D parity, which waits for its reads.
func checkCPIOrder(bench string, cpi map[experiments.SchemeID]float64) string {
	base := cpi[experiments.Parity1D]
	for _, id := range uniprocSchemes {
		if cpi[id] < base {
			return fmt.Sprintf("%s: %s CPI %v below parity-1d %v", bench, id, cpi[id], base)
		}
	}
	if cpi[experiments.CPPC] > cpi[experiments.TwoDim] {
		return fmt.Sprintf("%s: cppc CPI %v above parity-2d %v", bench, cpi[experiments.CPPC], cpi[experiments.TwoDim])
	}
	return ""
}

// levelSchemes returns the (L1, L2) scheme constructors of one evaluated
// scheme, as experiments.SimulateCtx configures them.
func levelSchemes(id experiments.SchemeID) (l1, l2 cpu.SchemeFactory) {
	switch id {
	case experiments.CPPC:
		return func(c *cache.Cache) protect.Scheme { return protect.MustCPPC(c, core.DefaultL1Config()) },
			func(c *cache.Cache) protect.Scheme { return protect.MustCPPC(c, core.DefaultL2Config()) }
	case experiments.SECDED:
		mk := func(c *cache.Cache) protect.Scheme { return protect.NewSECDED(c, true) }
		return mk, mk
	case experiments.TwoDim:
		mk := func(c *cache.Cache) protect.Scheme { return protect.NewTwoDim(c, 8) }
		return mk, mk
	default:
		mk := func(c *cache.Cache) protect.Scheme { return protect.NewParity1D(c, 8) }
		return mk, mk
	}
}

// uniLayers holds the clocks and counters of the uniproc layers.
type uniLayers struct {
	root, warmup float64 // host seconds inside core.RunCtx, and its warmup part
	simCycles    float64
	trace        *clock
	instrs       float64
	port         *clock
	loads        float64
	stores       float64
	plans        float64
	l2hop, mem   *clock
	fetches      [2]float64 // L1→L2, L2→memory
	writebacks   [2]float64
	scheme       [2]map[string]*clock // per level, per scheme name
}

func newUniLayers() *uniLayers {
	ly := &uniLayers{
		trace: newClock(1), port: newClock(sampleEvery),
		l2hop: newClock(sampleEvery), mem: newClock(sampleEvery),
	}
	for lv := range ly.scheme {
		ly.scheme[lv] = map[string]*clock{}
		for _, id := range uniprocSchemes {
			ly.scheme[lv][id.String()] = newClock(sampleEvery)
		}
	}
	return ly
}

// simulate is experiments.SimulateCtx rebuilt from the public
// constructors with a timing wrapper on every seam: the trace source,
// the core's memory port, both cache.Backing hops and each level's
// scheme. It returns the same experiments.Run, bit for bit.
func (ly *uniLayers) simulate(ctx context.Context, prof trace.Profile, id experiments.SchemeID, b experiments.Budget) (experiments.Run, error) {
	mkL1, mkL2 := levelSchemes(id)
	mem := cache.NewMemory(32, 200)
	memHop := &timedBacking{inner: mem, clk: ly.mem}
	l2c := cache.New(cache.L2Config())
	l2s := mkL2(l2c)
	l2 := protect.NewController(l2c, wrapScheme(l2s, ly.scheme[1][id.String()]), memHop)
	l2Hop := &timedBacking{inner: l2, clk: ly.l2hop}
	l1c := cache.New(cache.L1DConfig())
	l1s := mkL1(l1c)
	l1 := protect.NewController(l1c, wrapScheme(l1s, ly.scheme[0][id.String()]), l2Hop)
	sys := &cpu.System{Levels: []*protect.Controller{l1, l2}, Mem: mem}
	defer sys.Release()
	port := &timedPort{inner: sys.Port(), clk: ly.port}
	src, counted := wrapSource(prof.NewMemoGen(b.Seed), ly.trace)
	c := cpu.NewCoreWithPort(cpu.Table1Config(), port)
	defer c.Release()

	t0 := time.Now()
	w, err := c.RunCtx(ctx, src, b.Warmup)
	tw := time.Since(t0).Seconds()
	if err != nil {
		return experiments.Run{}, err
	}
	sys.ResetStats()
	m, err := c.RunCtx(ctx, src, b.Measure)
	total := time.Since(t0).Seconds()
	if err != nil {
		return experiments.Run{}, err
	}
	ly.root += total
	ly.warmup += tw
	ly.simCycles += float64(m.Cycles)
	ly.instrs += float64(counted.instrs)
	ly.loads += float64(port.loads)
	ly.stores += float64(port.stores)
	ly.plans += float64(port.plans)
	ly.fetches[0] += float64(l2Hop.fetches)
	ly.fetches[1] += float64(memHop.fetches)
	ly.writebacks[0] += float64(l2Hop.writebacks)
	ly.writebacks[1] += float64(memHop.writebacks)

	// The rest mirrors experiments.SimulateSourceCtx.
	m.Cycles -= w.Cycles
	run := experiments.Run{Bench: prof.Name, Scheme: id, CPI: float64(m.Cycles) / float64(m.Instructions),
		L1: l1.Stats, L2: l2.Stats}
	run.L1Gran.Dirty, run.L1Gran.Tavg = l1c.DirtyFraction(), l1c.Tavg()
	run.L2Gran.Dirty, run.L2Gran.Tavg = l2c.DirtyFraction(), l2c.Tavg()
	if id == experiments.CPPC {
		l1e, l2e := l1s.(*protect.CPPCScheme).Engine.Events, l2s.(*protect.CPPCScheme).Engine.Events
		run.Folds.L1, run.Folds.L2 = l1e.Folds, l2e.Folds
		run.Elided.L1, run.Elided.L2 = l1e.SilentStoresElided, l2e.SilentStoresElided
	}
	return run, nil
}

// metrics turns one traced pass's clocks and counters into per-layer
// metrics. A layer's self time is its inclusive time minus its
// children's, instrumentation included; the cpu layer's is what the
// core's run loop spent outside the trace source and the memory port.
func (ly *uniLayers) metrics() map[string]float64 {
	var schemeIncl, schemeCost, schemeCalls [2]float64
	self := map[string]float64{}
	for lv, prefix := range []string{"scheme.l1.", "scheme.l2."} {
		for s, clk := range ly.scheme[lv] {
			self[prefix+s] = clk.seconds()
			schemeIncl[lv] += clk.seconds()
			schemeCost[lv] += clk.cost()
			schemeCalls[lv] += float64(clk.calls)
		}
	}
	self["trace"] = ly.trace.seconds()
	self["cpu"] = ly.root - ly.trace.cost() - ly.port.cost()
	self["protect.l1"] = ly.port.seconds() - schemeCost[0] - ly.l2hop.cost()
	self["protect.l2"] = ly.l2hop.seconds() - schemeCost[1] - ly.mem.cost()
	self["memory"] = ly.mem.seconds()

	m := map[string]float64{
		"trace.instrs":          ly.instrs,
		"cpu.sim_cycles":        ly.simCycles,
		"cpu.warmup_share":      ly.warmup / ly.root,
		"protect.l1.loads":      ly.loads,
		"protect.l1.stores":     ly.stores,
		"protect.l1.plans":      ly.plans,
		"protect.l2.fetches":    ly.fetches[0],
		"protect.l2.writebacks": ly.writebacks[0],
		"memory.fetches":        ly.fetches[1],
		"memory.writebacks":     ly.writebacks[1],
		"scheme.l1.calls":       schemeCalls[0],
		"scheme.l2.calls":       schemeCalls[1],
	}
	for k, v := range self {
		m[k+".self_s"] = v
	}
	// Shares are by layer, each level's schemes together.
	layerSelf := map[string]float64{
		"trace": self["trace"], "cpu": self["cpu"], "protect.l1": self["protect.l1"],
		"protect.l2": self["protect.l2"], "scheme.l1": schemeIncl[0], "scheme.l2": schemeIncl[1],
		"memory": self["memory"],
	}
	for k, v := range shares(layerSelf) {
		m["share."+k] = v
	}
	return m
}

func (u *uniproc) layers() map[string]float64 { return u.acc.mean() }
