package fault

import (
	"context"
	"testing"

	"cppc/internal/cache"
	"cppc/internal/core"
	"cppc/internal/protect"
)

func cppcFactory(cfg core.Config) SchemeFactory {
	return func(c *cache.Cache) protect.Scheme { return protect.MustCPPC(c, cfg) }
}

func parityFactory() SchemeFactory {
	return func(c *cache.Cache) protect.Scheme { return protect.NewParity1D(c, 8) }
}

func secdedFactory() SchemeFactory {
	return func(c *cache.Cache) protect.Scheme { return protect.NewSECDED(c, true) }
}

func twodimFactory() SchemeFactory {
	return func(c *cache.Cache) protect.Scheme { return protect.NewTwoDim(c, 8) }
}

// The helpers below run one campaign on a background context and fail
// the test on an error.

func spatialTrials(t *testing.T, ccfg cache.Config, mk SchemeFactory, h, w, trials int, seed int64) Counts {
	t.Helper()
	c, err := RunSpatialTrialsCfgCtx(context.Background(), ccfg, mk, h, w, trials, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func temporalTrials(t *testing.T, mk SchemeFactory, bits, trials int, seed int64) Counts {
	t.Helper()
	c, err := RunTemporalTrialsCtx(context.Background(), mk, bits, trials, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func modelTrials(t *testing.T, mk SchemeFactory, m Model, faults, trials int, seed int64) Counts {
	t.Helper()
	c, err := RunModelTrialsCtx(context.Background(), CampaignCacheConfig(), mk, m, faults, trials, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func monteCarlo(t *testing.T, mk SchemeFactory, lambda float64, trials, maxAccesses int, seed int64) MCResult {
	t.Helper()
	r, err := MonteCarloMTTFCtx(context.Background(), mk, lambda, trials, maxAccesses, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOutcomeStrings(t *testing.T) {
	if Corrected.String() != "corrected" || DUE.String() != "DUE" ||
		SDC.String() != "SDC" || Outcome(9).String() != "unknown" {
		t.Error("outcome strings wrong")
	}
}

func TestNoFaultMeansCorrected(t *testing.T) {
	for _, mk := range []SchemeFactory{parityFactory(), secdedFactory(), twodimFactory(), cppcFactory(core.DefaultL1Config())} {
		c := cache.New(CampaignCacheConfig())
		mem := cache.NewMemory(32, 100)
		ct := protect.NewController(c, mk(c), mem)
		camp := New(ct, mem, 1)
		camp.Populate(3000, 8192)
		if got := camp.Probe(); got != Corrected {
			t.Errorf("%s: clean probe = %v", ct.Scheme.Name(), got)
		}
	}
}

func TestSingleBitCoverage(t *testing.T) {
	const trials = 40
	// CPPC corrects every temporal single-bit fault.
	if got := temporalTrials(t, cppcFactory(core.DefaultL1Config()), 1, trials, 7); got.Corrected != trials {
		t.Errorf("CPPC single-bit: %v", got)
	}
	// SECDED too.
	if got := temporalTrials(t, secdedFactory(), 1, trials, 7); got.Corrected != trials {
		t.Errorf("SECDED single-bit: %v", got)
	}
	// 1D parity survives only faults in clean data; with a mixed workload
	// a good share must be DUEs and none silent.
	got := temporalTrials(t, parityFactory(), 1, trials, 7)
	if got.SDC != 0 {
		t.Errorf("parity produced SDC: %v", got)
	}
	if got.DUE == 0 {
		t.Errorf("parity never DUEd on dirty faults: %v", got)
	}
}

func TestSpatialCoverageCPPCOnePair(t *testing.T) {
	// The evaluated L1 CPPC (one pair, byte shifting): everything inside
	// small squares corrects; note 1x1 through 4x4 here for runtime.
	mk := cppcFactory(core.DefaultL1Config())
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {1, 8}, {4, 1}} {
		got := spatialTrials(t, CampaignCacheConfig(), mk, shape[0], shape[1], 15, 11)
		if got.Corrected != got.Total() {
			t.Errorf("%dx%d: %v", shape[0], shape[1], got)
		}
	}
}

func TestSpatial8x8NeedsTwoPairs(t *testing.T) {
	// Sec. 4.6: full 8x8 squares are not correctable with one pair but are
	// with two.
	one := spatialTrials(t, CampaignCacheConfig(), cppcFactory(core.DefaultL1Config()), 8, 8, 10, 13)
	if one.DUE == 0 {
		t.Errorf("one pair corrected all 8x8 squares: %v", one)
	}
	if one.SDC != 0 {
		t.Errorf("one pair silently corrupted: %v", one)
	}
	two := spatialTrials(t, CampaignCacheConfig(), cppcFactory(core.Config{ParityDegree: 8, RegisterPairs: 2, ByteShifting: true}), 8, 8, 10, 13)
	if two.Corrected != two.Total() {
		t.Errorf("two pairs: %v", two)
	}
}

func TestSpatialEightPairsNoShifting(t *testing.T) {
	// Sec. 4.11: eight pairs without byte shifting correct all 8x8 faults.
	got := spatialTrials(t, CampaignCacheConfig(), cppcFactory(core.FullCorrectionConfig()), 8, 8, 10, 17)
	if got.Corrected != got.Total() {
		t.Errorf("8 pairs: %v", got)
	}
}

func TestBasicCPPCFailsVerticalSpatial(t *testing.T) {
	// Sec. 4.2: without byte shifting (and only one pair), vertical
	// multi-bit faults are unrecoverable — but never silent.
	mk := cppcFactory(core.Config{ParityDegree: 8, RegisterPairs: 1, ByteShifting: false})
	got := spatialTrials(t, CampaignCacheConfig(), mk, 2, 1, 30, 19)
	if got.DUE == 0 {
		t.Errorf("basic CPPC corrected vertical 2x1 faults: %v", got)
	}
	if got.SDC != 0 {
		t.Errorf("basic CPPC silent corruption: %v", got)
	}
}

func TestSECDEDSpatialWithInterleaving(t *testing.T) {
	// On the physically bit-interleaved layout (the paper's SECDED
	// configuration), any burst up to 8 columns wide spreads into at most
	// one bit per word — fully correctable, including the 8x8 square.
	for _, shape := range [][2]int{{1, 8}, {4, 4}, {8, 8}} {
		got := spatialTrials(t, InterleavedCampaignConfig(), secdedFactory(), shape[0], shape[1], 15, 23)
		if got.Corrected != got.Total() {
			t.Errorf("interleaved SECDED %dx%d: %v", shape[0], shape[1], got)
		}
	}
	// Without interleaving, two horizontally adjacent bits land in the
	// same codeword and defeat SECDED on dirty data.
	got := spatialTrials(t, CampaignCacheConfig(), secdedFactory(), 1, 2, 40, 23)
	if got.DUE == 0 {
		t.Errorf("contiguous SECDED never DUEd on 2-bit horizontal: %v", got)
	}
}

func TestAliasingSDCReproduced(t *testing.T) {
	// Sec. 4.7: craft the aliasing pair — bit 56 of a class-0 dirty word
	// and bit 8 of the class-1 word directly below — and observe the SDC.
	c := cache.New(CampaignCacheConfig())
	mem := cache.NewMemory(32, 100)
	ct := protect.NewController(c, protect.MustCPPC(c, core.DefaultL1Config()), mem)
	camp := New(ct, mem, 29)
	// Rows are blocks in this direct-mapped layout; word 0 of block 0 is
	// row 0 (class 0), word 0 of block 1 is row 1 (class 1).
	camp.Store(0x00, 0)
	camp.Store(0x20, 0)
	camp.InjectWord(0x00, 1<<56)
	camp.InjectWord(0x20, 1<<8)
	if got := camp.Probe(); got != SDC {
		t.Errorf("aliasing pair outcome = %v, want SDC", got)
	}
}

func TestCoverageMatrixShape(t *testing.T) {
	m, err := CoverageMatrixCfgCtx(context.Background(), CampaignCacheConfig(),
		cppcFactory(core.Config{ParityDegree: 8, RegisterPairs: 2, ByteShifting: true}), 3, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || len(m[0]) != 3 {
		t.Fatalf("matrix shape %dx%d", len(m), len(m[0]))
	}
	for h := range m {
		for w := range m[h] {
			if m[h][w].Total() != 4 {
				t.Errorf("cell %dx%d trials = %d", h+1, w+1, m[h][w].Total())
			}
		}
	}
	s := FormatMatrix(m)
	if s == "" || len(s) < 20 {
		t.Error("FormatMatrix output too short")
	}
}

func TestCountsHelpers(t *testing.T) {
	c := Counts{Corrected: 3, DUE: 1, SDC: 0}
	if c.Total() != 4 || c.CoverageRate() != 0.75 {
		t.Errorf("%+v helpers wrong", c)
	}
	var empty Counts
	if empty.CoverageRate() != 0 {
		t.Error("empty coverage not 0")
	}
	if c.String() == "" {
		t.Error("empty String")
	}
}
