package experiments

import (
	"context"
	"strings"
	"testing"

	"cppc/internal/cache"
	"cppc/internal/coherence"
	"cppc/internal/core"
	"cppc/internal/cpu"
	"cppc/internal/protect"
	"cppc/internal/trace"
)

// multicoreFolds sums the CPPC fold counters across every engine of the
// shared hierarchy.
func multicoreFolds(m *coherence.Multiprocessor) uint64 {
	var n uint64
	for _, l1 := range m.L1s {
		n += l1.Scheme.(*protect.CPPCScheme).Engine.Events.Folds
	}
	return n + m.L2.Scheme.(*protect.CPPCScheme).Engine.Events.Folds
}

// TestMulticoreWarmupFoldInvariance: the fold counts a multicore cell
// reports must cover the measurement window only. An uninterrupted run
// of the same deterministic streams gives the total folds across both
// windows; the cell's counts must equal that total minus the folds the
// warmup produced. (The bug: Multiprocessor.ResetStats cleared the
// cache stats at the warmup boundary but not the engines' event
// counters, so warmup folds leaked into every multicore energy figure.)
func TestMulticoreWarmupFoldInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("timed multicore simulation")
	}
	const cores, sf = 2, 0.3
	const warm, meas = 5_000, 15_000
	p, ok := trace.ProfileByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	l1cfg, l2cfg, err := mpConfigs()
	if err != nil {
		t.Fatal(err)
	}
	mkL1 := func(c *cache.Cache) protect.Scheme { return protect.MustCPPC(c, core.DefaultL1Config()) }
	mkL2 := func(c *cache.Cache) protect.Scheme { return protect.MustCPPC(c, core.DefaultL2Config()) }
	m := coherence.New(cores, l1cfg, l2cfg, mkL1, mkL2, 200)
	defer m.Release()
	m.Timing = coherence.DefaultTiming()
	ports := make([]cpu.MemoryPort, cores)
	srcs := make([]trace.Source, cores)
	for i, g := range p.NewCoreGens(cores, sf, 1) {
		ports[i] = m.CorePort(i)
		srcs[i] = g
	}
	cl, err := cpu.NewCluster(cpu.Table1Config(), ports, srcs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Release()
	// No ResetStats between the windows: folds accumulate across both.
	if _, err := cl.RunCtx(context.Background(), warm, 0); err != nil {
		t.Fatal(err)
	}
	warmFolds := multicoreFolds(m)
	if _, err := cl.RunCtx(context.Background(), meas, 0); err != nil {
		t.Fatal(err)
	}
	allFolds := multicoreFolds(m)
	if warmFolds == 0 {
		t.Fatal("warmup produced no folds; the invariance check is vacuous")
	}

	run, err := MulticoreCellCtx(context.Background(), p, cores, sf, false, Budget{Warmup: warm, Measure: meas, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := run.FoldsL1+run.FoldsL2, allFolds-warmFolds; got != want {
		t.Errorf("cell reported %d folds, want measure-window-only %d (total %d, warmup %d)",
			got, want, allFolds, warmFolds)
	}
}

// TestSection7TableGuardsDegenerateRuns: a halted or zero-budget cell
// has no stores and no energy; the renderer must print zeros, never NaN
// or Inf.
func TestSection7TableGuardsDegenerateRuns(t *testing.T) {
	out := Section7Table([]MulticoreRun{
		{Bench: "gzip", Cores: 1, SharedFrac: 0},
		{Bench: "gzip", Cores: 2, SharedFrac: 0.3},
	})
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(out, bad) {
			t.Errorf("degenerate runs rendered %s:\n%s", bad, out)
		}
	}
	for _, want := range []string{"energy (nJ)", "energy vs 1 core"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q column", want)
		}
	}
}

// TestMulticoreSilentElision: at the same sweep point the cppc-silent
// hierarchy must be timing- and detection-identical to plain CPPC —
// same CPI, cycles, cache and coherence stats — while eliding a
// non-zero number of silent stores and spending strictly less write and
// fold energy.
func TestMulticoreSilentElision(t *testing.T) {
	if testing.Short() {
		t.Skip("timed multicore simulation")
	}
	p, ok := trace.ProfileByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	b := Budget{Warmup: 5_000, Measure: 15_000, Seed: 3}
	plain, err := MulticoreCellCtx(context.Background(), p, 2, 0.3, false, b)
	if err != nil {
		t.Fatal(err)
	}
	silent, err := MulticoreCellCtx(context.Background(), p, 2, 0.3, true, b)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CPI != silent.CPI || plain.Cycles != silent.Cycles {
		t.Errorf("elision changed timing: plain CPI %v / %d cycles, silent %v / %d",
			plain.CPI, plain.Cycles, silent.CPI, silent.Cycles)
	}
	if plain.L1 != silent.L1 || plain.L2 != silent.L2 || plain.Coherence != silent.Coherence {
		t.Error("elision changed cache or coherence statistics")
	}
	if silent.ElidedL1 == 0 {
		t.Fatal("no silent stores elided; assertions below are vacuous")
	}
	if got, want := plain.FoldsL1-silent.FoldsL1, 2*silent.ElidedL1; got != want {
		t.Errorf("L1 fold savings = %d, want 2*elided = %d", got, want)
	}
	pw := plain.EnergyL1.WritePJ + plain.EnergyL1.FoldPJ + plain.EnergyL2.WritePJ + plain.EnergyL2.FoldPJ
	sw := silent.EnergyL1.WritePJ + silent.EnergyL1.FoldPJ + silent.EnergyL2.WritePJ + silent.EnergyL2.FoldPJ
	if sw >= pw {
		t.Errorf("silent write+fold energy %v not below plain %v", sw, pw)
	}
	if silent.TotalEnergyPJ() >= plain.TotalEnergyPJ() {
		t.Errorf("silent total energy %v not below plain %v", silent.TotalEnergyPJ(), plain.TotalEnergyPJ())
	}
	// The non-saved components are untouched.
	if plain.EnergyL1.ReadPJ != silent.EnergyL1.ReadPJ || plain.EnergyL1.RBWPJ != silent.EnergyL1.RBWPJ {
		t.Error("elision changed read or RBW energy")
	}
	if plain.EnergyBus != silent.EnergyBus {
		t.Error("elision changed bus energy")
	}
}

// TestMulticoreSilentDeterminism: the silent knob keeps the cell
// deterministic — two runs with the same seed are equal field for
// field.
func TestMulticoreSilentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("timed multicore simulation")
	}
	p, ok := trace.ProfileByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	b := Budget{Warmup: 5_000, Measure: 15_000, Seed: 9}
	r1, err := MulticoreCellCtx(context.Background(), p, 2, 0.5, true, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := MulticoreCellCtx(context.Background(), p, 2, 0.5, true, b)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("same seed produced different silent runs:\n%+v\n%+v", r1, r2)
	}
	if !r1.Silent {
		t.Error("run does not record its silent variant")
	}
}

// TestSimulateSilentBitIdentical: on the single-core system, the
// cppc-silent scheme must reproduce plain CPPC's timing and cache
// behavior exactly while recording a non-zero elision count.
func TestSimulateSilentBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("timed simulation")
	}
	p, ok := trace.ProfileByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	b := Budget{Warmup: 5_000, Measure: 15_000, Seed: 1}
	plain, err := SimulateCtx(context.Background(), p, CPPC, b)
	if err != nil {
		t.Fatal(err)
	}
	silent, err := SimulateCtx(context.Background(), p, CPPCSilent, b)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CPI != silent.CPI {
		t.Errorf("elision changed CPI: %v vs %v", plain.CPI, silent.CPI)
	}
	if plain.L1 != silent.L1 || plain.L2 != silent.L2 {
		t.Error("elision changed cache statistics")
	}
	if silent.Elided.L1 == 0 {
		t.Fatal("no L1 stores elided; the comparison is vacuous")
	}
	if got, want := plain.Folds.L1-silent.Folds.L1, 2*silent.Elided.L1; got != want {
		t.Errorf("L1 fold savings = %d, want 2*elided = %d", got, want)
	}
	if plain.Elided.L1 != 0 || plain.Elided.L2 != 0 {
		t.Error("plain CPPC recorded elisions")
	}
}

// TestSilentStoreAblationReport smoke-tests the Fig. 11/12-style
// ablation table: the cppc-silent columns render, nothing degenerates
// to NaN, and the timing-neutrality column is present.
func TestSilentStoreAblationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("timed ablation")
	}
	out, err := SilentStoreAblation(context.Background(), Budget{Warmup: 5_000, Measure: 15_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cppc-silent", "elided/store", "CPI silent/cppc"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("ablation report rendered NaN:\n%s", out)
	}
}
