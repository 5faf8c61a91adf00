package experiments

import (
	"context"
	"strings"
	"testing"

	"cppc/internal/trace"
)

// tiny budget keeps the test suite fast while still exercising the full
// pipeline end to end.
func tinyBudget() Budget { return Budget{Warmup: 40_000, Measure: 80_000, Seed: 1} }

// simulate runs one cell on a background context.
func simulate(t *testing.T, p trace.Profile, id SchemeID, b Budget) Run {
	t.Helper()
	r, err := SimulateCtx(context.Background(), p, id, b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func tinySuite(t *testing.T) *Suite {
	t.Helper()
	// Three representative benchmarks: cache-friendly, store-heavy,
	// miss-heavy.
	b := tinyBudget()
	s := &Suite{Budget: b, Runs: map[string]map[SchemeID]Run{}}
	for _, name := range []string{"crafty", "vortex", "mcf"} {
		p, ok := trace.ProfileByName(name)
		if !ok {
			t.Fatalf("profile %s missing", name)
		}
		s.Order = append(s.Order, name)
		s.Runs[name] = map[SchemeID]Run{}
		for _, id := range []SchemeID{Parity1D, CPPC, SECDED, TwoDim} {
			s.Runs[name][id] = simulate(t, p, id, b)
		}
	}
	return s
}

func TestSchemeIDStrings(t *testing.T) {
	want := []string{"parity-1d", "cppc", "secded", "parity-2d"}
	for i, w := range want {
		if SchemeID(i).String() != w {
			t.Errorf("SchemeID(%d) = %q", i, SchemeID(i).String())
		}
	}
}

func TestTable1Static(t *testing.T) {
	s := Table1()
	for _, want := range []string{"32KB", "1MB", "4 int ALU", "3 GHz", "32nm", "16KB"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestSuiteFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite")
	}
	s := tinySuite(t)

	// Figure 10: CPPC within a percent of baseline, 2D above it.
	for _, b := range s.Order {
		base := s.Runs[b][Parity1D].CPI
		if c := s.Runs[b][CPPC].CPI; c < base*0.999 || c > base*1.03 {
			t.Errorf("%s: CPPC CPI ratio %.4f out of range", b, c/base)
		}
		if d := s.Runs[b][TwoDim].CPI; d < base {
			t.Errorf("%s: 2D CPI below baseline", b)
		}
	}
	fig10 := s.Figure10()
	if !strings.Contains(fig10, "average") {
		t.Error("Figure 10 missing average row")
	}

	// Figures 11/12: energy ordering parity < cppc < secded, 2d highest
	// or near-highest.
	for _, b := range s.Order {
		v1 := s.energyRow(b, 1)
		if !(v1[0] == 1.0) {
			t.Errorf("%s: baseline not normalized: %v", b, v1)
		}
		if v1[1] <= 1.0 {
			t.Errorf("%s: CPPC L1 energy %.3f not above baseline", b, v1[1])
		}
		if v1[2] <= v1[1] {
			t.Errorf("%s: SECDED L1 energy %.3f not above CPPC %.3f", b, v1[2], v1[1])
		}
		if v1[3] <= v1[1] {
			t.Errorf("%s: 2D L1 energy %.3f not above CPPC %.3f", b, v1[3], v1[1])
		}
		v2 := s.energyRow(b, 2)
		if v2[1] >= v1[1] {
			t.Errorf("%s: CPPC overhead should shrink at L2: L1 %.3f L2 %.3f", b, v1[1], v2[1])
		}
	}

	// Table 2: measured values in plausible ranges.
	v := s.Table2()
	if v.L1Dirty < 0.03 || v.L1Dirty > 0.5 {
		t.Errorf("L1 dirty fraction %.3f implausible", v.L1Dirty)
	}
	if v.L1Tavg <= 0 || v.L2Tavg <= 0 {
		t.Errorf("Tavg not measured: %+v", v)
	}

	// Rendering should not panic and should include every benchmark.
	for _, out := range []string{s.Figure11(), s.Figure12(), s.Table2String(), s.Table3()} {
		for _, b := range s.Order {
			if !strings.Contains(out, b) && !strings.Contains(out, "Table") {
				t.Errorf("output missing benchmark %s", b)
			}
		}
	}
}

func TestSection47And48(t *testing.T) {
	s47 := Section47()
	if !strings.Contains(s47, "eliminated") {
		t.Error("Sec 4.7 table should mark 8 pairs as eliminated")
	}
	s48 := Section48()
	if !strings.Contains(s48, "ns") || !strings.Contains(s48, "pJ") {
		t.Error("Sec 4.8 table missing units")
	}
}

func TestSpatialCoverageReport(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo campaign")
	}
	out, err := SpatialCoverageCtx(context.Background(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cppc 1 pair", "cppc 8 pairs", "secded", "parity-1d"} {
		if !strings.Contains(out, want) {
			t.Errorf("coverage report missing %q", want)
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo campaign")
	}
	pa, err := PairAblationCtx(context.Background(), 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pa, "8") {
		t.Error("pair ablation missing rows")
	}
	pd, err := ParityAblationCtx(context.Background(), 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pd, "degree") {
		t.Error("parity ablation missing header")
	}
}

func TestSection7MulticoreReport(t *testing.T) {
	if testing.Short() {
		t.Skip("coherence sweep")
	}
	out, err := Section7MulticoreCtx(context.Background(), Budget{Warmup: 5_000, Measure: 10_000, Seed: 3})
	if err != nil {
		t.Fatalf("Section7MulticoreCtx: %v", err)
	}
	for _, want := range []string{"cores", "CPI", "slowdown", "RBW/store", "invalidations"} {
		if !strings.Contains(out, want) {
			t.Errorf("Sec. 7 report missing %q", want)
		}
	}
}

func TestMulticoreCellDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("timed multicore simulation")
	}
	p, ok := trace.ProfileByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	b := Budget{Warmup: 5_000, Measure: 15_000, Seed: 9}
	r1, err := MulticoreCellCtx(context.Background(), p, 2, 0.5, false, b)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	r2, err := MulticoreCellCtx(context.Background(), p, 2, 0.5, false, b)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if r1 != r2 {
		t.Errorf("same seed produced different multicore stats:\n%+v\n%+v", r1, r2)
	}
	if r1.Instructions != 2*15_000 {
		t.Errorf("expected %d measured instructions, got %d", 2*15_000, r1.Instructions)
	}
	if r1.CPI <= 0 || r1.Cycles == 0 {
		t.Errorf("degenerate timing result: %+v", r1)
	}
}

func TestSinglePortAblationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("timing ablation")
	}
	out, err := SinglePortAblation(context.Background(), tinyBudget())
	if err != nil {
		t.Fatalf("SinglePortAblation: %v", err)
	}
	for _, want := range []string{"cppc split", "2d single", "crafty"} {
		if !strings.Contains(out, want) {
			t.Errorf("single-port ablation missing %q", want)
		}
	}
}

func TestEarlyWritebackAblationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("policy ablation")
	}
	out, err := EarlyWritebackAblation(context.Background(), 30_000, 3)
	if err != nil {
		t.Fatalf("EarlyWritebackAblation: %v", err)
	}
	if !strings.Contains(out, "off") || !strings.Contains(out, "MTTF") {
		t.Errorf("early-writeback ablation malformed:\n%s", out)
	}
}

func TestSection51AreaReport(t *testing.T) {
	out := Section51Area(1)
	for _, want := range []string{"parity-1d", "cppc", "secded", "parity-2d", "barrel shifters", "12.5%"} {
		if !strings.Contains(out, want) {
			t.Errorf("area table missing %q", want)
		}
	}
	// More pairs cost more register bits.
	out8 := Section51Area(8)
	if !strings.Contains(out8, "+1024 reg") {
		t.Errorf("8-pair register storage not reflected:\n%s", out8)
	}
}

func TestMonteCarloValidationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo lifetimes")
	}
	out, err := MonteCarloValidationCtx(context.Background(), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"parity-1d", "cppc", "ratio", "lethality"} {
		if !strings.Contains(out, want) {
			t.Errorf("MC validation report missing %q", want)
		}
	}
}

func TestSectionL3Report(t *testing.T) {
	if testing.Short() {
		t.Skip("three-level simulation")
	}
	out, err := SectionL3Ctx(context.Background(), Budget{Warmup: 30_000, Measure: 60_000, Seed: 1})
	if err != nil {
		t.Fatalf("SectionL3Ctx: %v", err)
	}
	for _, want := range []string{"mcf", "RBW/store L3", "cppc/parity L3 energy",
		"parity CPI", "cppc@L3 CPI", "cppc@L2 CPI"} {
		if !strings.Contains(out, want) {
			t.Errorf("L3 report missing %q", want)
		}
	}
}

func TestL3CellDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("three-level simulation")
	}
	p, ok := trace.ProfileByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	b := Budget{Warmup: 5_000, Measure: 15_000, Seed: 9}
	r1, err := L3Cell(context.Background(), p, b)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	r2, err := L3Cell(context.Background(), p, b)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if r1 != r2 {
		t.Errorf("same seed produced different L3 cells:\n%+v\n%+v", r1, r2)
	}
	if r1.ParityCPI <= 0 || r1.CPPCL3CPI <= 0 || r1.CPPCL2CPI <= 0 {
		t.Errorf("timed L3 cell missing CPI columns: %+v", r1)
	}
}
