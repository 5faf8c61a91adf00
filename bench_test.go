package cppc

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (run `go test -bench=. -benchmem`), plus
// micro-benchmarks of the protection hot paths. The full-budget versions
// of the experiments are produced by cmd/repro; these benches exercise
// the identical code on a reduced instruction budget so the harness
// finishes in seconds per entry.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cppc/internal/experiments"
	"cppc/internal/fault"
	"cppc/internal/parity"
	"cppc/internal/protect"
	"cppc/internal/reliability"
	"cppc/internal/service"
	"cppc/internal/trace"

	icache "cppc/internal/cache"
	icore "cppc/internal/core"
)

// benchBudget keeps each figure-bench iteration around a hundred
// milliseconds.
func benchBudget() experiments.Budget {
	return experiments.Budget{Warmup: 20_000, Measure: 60_000, Seed: 1}
}

// benchProfiles is a representative trio: cache-friendly, store-heavy,
// miss-heavy.
func benchProfiles() []trace.Profile {
	var out []trace.Profile
	for _, name := range []string{"crafty", "vortex", "mcf"} {
		p, ok := trace.ProfileByName(name)
		if !ok {
			panic("missing profile " + name)
		}
		out = append(out, p)
	}
	return out
}

// simulate runs one Fig. 10 cell on a background context.
func simulate(b *testing.B, p trace.Profile, id experiments.SchemeID, bud experiments.Budget) experiments.Run {
	b.Helper()
	r, err := experiments.SimulateCtx(context.Background(), p, id, bud)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable1Config renders the configuration table.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure10CPI regenerates the Fig. 10 CPI comparison: each
// benchmark under parity, CPPC and 2D parity.
func BenchmarkFigure10CPI(b *testing.B) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		for _, p := range benchProfiles() {
			base := simulate(b, p, experiments.Parity1D, bud)
			cp := simulate(b, p, experiments.CPPC, bud)
			td := simulate(b, p, experiments.TwoDim, bud)
			if cp.CPI < base.CPI*0.99 || td.CPI < base.CPI*0.99 {
				b.Fatalf("%s: CPI ordering broken: %.3f %.3f %.3f",
					p.Name, base.CPI, cp.CPI, td.CPI)
			}
		}
	}
}

// BenchmarkFigure11EnergyL1 regenerates the Fig. 11 normalized L1 energy.
func BenchmarkFigure11EnergyL1(b *testing.B) {
	benchEnergy(b, 1)
}

// BenchmarkFigure12EnergyL2 regenerates the Fig. 12 normalized L2 energy.
func BenchmarkFigure12EnergyL2(b *testing.B) {
	benchEnergy(b, 2)
}

func benchEnergy(b *testing.B, level int) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		s := &experiments.Suite{Budget: bud, Runs: map[string]map[experiments.SchemeID]experiments.Run{}}
		for _, p := range benchProfiles() {
			s.Order = append(s.Order, p.Name)
			s.Runs[p.Name] = map[experiments.SchemeID]experiments.Run{}
			for _, id := range []experiments.SchemeID{
				experiments.Parity1D, experiments.CPPC, experiments.SECDED, experiments.TwoDim,
			} {
				s.Runs[p.Name][id] = simulate(b, p, id, bud)
			}
		}
		var out string
		if level == 1 {
			out = s.Figure11()
		} else {
			out = s.Figure12()
		}
		if out == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkTable2DirtyStats measures the dirty-fraction and Tavg
// collection of Table 2.
func BenchmarkTable2DirtyStats(b *testing.B) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		for _, p := range benchProfiles() {
			run := simulate(b, p, experiments.Parity1D, bud)
			if run.L1Gran.Dirty <= 0 {
				b.Fatalf("%s: no dirty data measured", p.Name)
			}
		}
	}
}

// BenchmarkTable3MTTF evaluates the analytical reliability models with
// the paper's Table 2 inputs.
func BenchmarkTable3MTTF(b *testing.B) {
	l1, l2 := reliability.PaperL1Params(), reliability.PaperL2Params()
	for i := 0; i < b.N; i++ {
		_ = reliability.Parity1DMTTFYears(l1)
		_ = reliability.Parity1DMTTFYears(l2)
		_ = reliability.DoubleFaultMTTFYears(l1, reliability.CPPCDomains(8, 1))
		_ = reliability.DoubleFaultMTTFYears(l2, reliability.CPPCDomains(8, 1))
		_ = reliability.DoubleFaultMTTFYears(l1, reliability.SECDEDDomains(l1, 64))
		_ = reliability.DoubleFaultMTTFYears(l2, reliability.SECDEDDomains(l2, 256))
	}
}

// BenchmarkSection47Aliasing evaluates the aliasing-MTTF sweep.
func BenchmarkSection47Aliasing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Section47() == "" {
			b.Fatal("empty section")
		}
	}
}

// BenchmarkSection48Shifter evaluates the barrel-shifter critical-path
// numbers.
func BenchmarkSection48Shifter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Section48() == "" {
			b.Fatal("empty section")
		}
	}
}

// BenchmarkSpatialCoverage runs the Secs. 4.6/4.11 Monte-Carlo coverage
// campaign for the evaluated CPPC (one 4x4 shape per iteration).
func BenchmarkSpatialCoverage(b *testing.B) {
	mk := func(c *icache.Cache) protect.Scheme {
		return protect.MustCPPC(c, icore.Config{ParityDegree: 8, RegisterPairs: 2, ByteShifting: true})
	}
	for i := 0; i < b.N; i++ {
		got, err := fault.RunSpatialTrialsCfgCtx(context.Background(), fault.CampaignCacheConfig(), mk, 4, 4, 2, int64(i))
		if err != nil || got.Corrected != got.Total() {
			b.Fatalf("4x4 coverage broken: %v (err=%v)", got, err)
		}
	}
}

// --- hot-path micro-benchmarks ---

func newBenchController() (*Controller, *Engine) {
	c := NewCache(L1DConfig())
	s, err := NewCPPC(c, DefaultL1Engine())
	if err != nil {
		panic(err)
	}
	eng, _ := EngineOf(s)
	return NewController(c, s, NewMemory(32, 200)), eng
}

// BenchmarkStoreHitCPPC measures the common-case store path (R1 fold +
// parity encode), the operation CPPC adds work to.
func BenchmarkStoreHitCPPC(b *testing.B) {
	ctrl, _ := newBenchController()
	ctrl.Store(0x40, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Store(0x40, uint64(i), uint64(i+2))
	}
}

// BenchmarkLoadHitCPPC measures the load verify path (parity check).
func BenchmarkLoadHitCPPC(b *testing.B) {
	ctrl, _ := newBenchController()
	ctrl.Store(0x40, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Load(0x40, uint64(i+2))
	}
}

// BenchmarkRecoverySingle measures the full recovery sweep for one faulty
// word over a realistically filled cache.
func BenchmarkRecoverySingle(b *testing.B) {
	ctrl, eng := newBenchController()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4096; i++ {
		ctrl.Store(uint64(rng.Intn(8192))*8, rng.Uint64(), uint64(i+1))
	}
	set, way := ctrl.C.Probe(0x40)
	if way < 0 {
		ctrl.Store(0x40, 1, 99999)
		set, way = ctrl.C.Probe(0x40)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.C.FlipBits(set, way, 0, 1<<9)
		if rep := eng.RecoverDirty(set, way, 0); rep.Outcome != OutcomeCorrected {
			b.Fatalf("recovery failed: %+v", rep)
		}
	}
}

// BenchmarkSECDEDDecode measures the (72,64) decode hot path.
func BenchmarkSECDEDDecode(b *testing.B) {
	var s parity.SECDED
	w := rand.Uint64()
	check := s.Encode(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := s.Decode(w, check); res.Outcome != parity.SECDEDClean {
			b.Fatal("decode broke")
		}
	}
}

// BenchmarkHammingDecode256 measures the block-level SECDED decode used
// at L2.
func BenchmarkHammingDecode256(b *testing.B) {
	h := parity.MustHamming(256)
	data := []uint64{1, 2, 3, 4}
	check := h.Encode(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := h.Decode(data, check); res.Outcome != parity.SECDEDClean {
			b.Fatal("decode broke")
		}
	}
}

// BenchmarkSection7Multicore runs a short timed coherence sweep (the
// Sec. 7 multiprocessor experiment).
func BenchmarkSection7Multicore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Section7MulticoreCtx(context.Background(),
			experiments.Budget{Warmup: 2_000, Measure: 5_000, Seed: int64(i)})
		if err != nil || out == "" {
			b.Fatalf("empty section (err=%v)", err)
		}
	}
}

// BenchmarkShardedSuite runs one whole suite job through the daemon's
// shard scheduler, on one worker and on eight. A fresh service per
// iteration keeps the caches cold; the pair shows the sweep fan-out win
// on multi-core hosts.
func BenchmarkShardedSuite(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := service.JobSpec{Kind: "suite", Warmup: 5_000, Measure: 15_000}
			for i := 0; i < b.N; i++ {
				s := service.New(service.Config{Workers: workers})
				job, err := s.Submit(spec)
				if err != nil {
					b.Fatalf("submit: %v", err)
				}
				for {
					j, err := s.Job(job.ID)
					if err != nil {
						b.Fatalf("poll: %v", err)
					}
					if j.State == service.StateDone {
						break
					}
					if j.State == service.StateFailed || j.State == service.StateCanceled {
						b.Fatalf("job %s: %s", j.State, j.Error)
					}
					time.Sleep(time.Millisecond)
				}
				if err := s.Shutdown(context.Background()); err != nil {
					b.Fatalf("shutdown: %v", err)
				}
			}
		})
	}
}

// BenchmarkAblationSinglePort reruns the CPI comparison with merged L1
// ports (the other Sec. 7 evaluation).
func BenchmarkAblationSinglePort(b *testing.B) {
	bud := benchBudget()
	for i := 0; i < b.N; i++ {
		if out, err := experiments.SinglePortAblation(context.Background(), bud); err != nil || out == "" {
			b.Fatalf("empty ablation (err=%v)", err)
		}
	}
}

// BenchmarkAblationEarlyWriteback measures the early write-back sweep.
func BenchmarkAblationEarlyWriteback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out, err := experiments.EarlyWritebackAblation(context.Background(), 30_000, int64(i)); err != nil || out == "" {
			b.Fatalf("empty ablation (err=%v)", err)
		}
	}
}

// BenchmarkMonteCarloLifetime runs one accelerated-rate lifetime trial
// (the PARMA-style cross-validation).
func BenchmarkMonteCarloLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := fault.MonteCarloMTTFCtx(context.Background(),
			func(c *icache.Cache) protect.Scheme {
				return protect.MustCPPC(c, icore.DefaultL1Config())
			},
			2e-7, 1, 50_000, int64(i))
		if err != nil || res.Trials != 1 {
			b.Fatalf("trial did not run (err=%v)", err)
		}
	}
}

// BenchmarkTagRecovery measures the Sec. 7 tag-array extension's recovery
// sweep.
func BenchmarkTagRecovery(b *testing.B) {
	ccfg, err := icache.Config{
		Name: "tagbench", SizeBytes: 32 << 10, Ways: 2, BlockBytes: 32,
		DirtyGranuleWords: 1, HitLatencyCycles: 2,
	}.Validate()
	if err != nil {
		b.Fatal(err)
	}
	c := icache.New(ccfg)
	eng := icore.MustNewTagEngine(c, icore.DefaultL1Config())
	mem := icache.NewMemory(32, 100)
	// Fill every set.
	for i := 0; i < ccfg.Sets()*ccfg.Ways; i++ {
		addr := uint64(i * ccfg.BlockBytes)
		set, _ := c.Probe(addr)
		way := c.Victim(set)
		ln := c.Line(set, way)
		oldValid, oldTag := ln.Valid, ln.Tag
		buf := make([]uint64, ccfg.BlockWords())
		mem.FetchBlock(addr, buf, 0)
		c.Install(set, way, addr, buf)
		eng.OnInstall(set, way, oldValid, oldTag, c.Line(set, way).Tag)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.FlipTagBits(3, 0, 1<<9)
		if rep := eng.RecoverTag(3, 0); rep.Outcome != icore.OutcomeCorrected {
			b.Fatalf("tag recovery failed: %+v", rep)
		}
	}
}
