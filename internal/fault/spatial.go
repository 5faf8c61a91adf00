package fault

import (
	"context"
	"fmt"
	"strings"

	"cppc/internal/cache"
	"cppc/internal/protect"
)

// SchemeFactory builds a protection scheme over a cache (mirrors
// cpu.SchemeFactory without importing the timing model).
type SchemeFactory func(c *cache.Cache) protect.Scheme

// Counts tallies trial outcomes.
type Counts struct {
	Corrected, DUE, SDC int
}

// Total is the trial count.
func (c Counts) Total() int { return c.Corrected + c.DUE + c.SDC }

// CoverageRate is the fraction of trials fully corrected.
func (c Counts) CoverageRate() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.Corrected) / float64(c.Total())
}

func (c Counts) String() string {
	return fmt.Sprintf("corrected=%d DUE=%d SDC=%d", c.Corrected, c.DUE, c.SDC)
}

// CampaignCacheConfig is the small dense cache used for injection
// trials: direct-mapped so spatial placement is easy to reason about,
// with one block per physical row. The experiments profiler runs every
// scheme over this array.
func CampaignCacheConfig() cache.Config {
	cfg, err := cache.Config{
		Name: "campaign", SizeBytes: 4096, Ways: 1, BlockBytes: 32,
		DirtyGranuleWords: 1, HitLatencyCycles: 2,
	}.Validate()
	if err != nil {
		panic(err)
	}
	return cfg
}

// InterleavedCampaignConfig is the campaign cache with 8-way physical
// bit interleaving (8 words per row), the layout the paper pairs with
// SECDED.
func InterleavedCampaignConfig() cache.Config {
	cfg, err := cache.Config{
		Name: "campaign-il", SizeBytes: 4096, Ways: 1, BlockBytes: 32,
		DirtyGranuleWords: 1, HitLatencyCycles: 2,
		WordsPerRow: 8, BitInterleaved: true,
	}.Validate()
	if err != nil {
		panic(err)
	}
	return cfg
}

// RunSpatialTrialsCfgCtx runs `trials` independent spatial-fault
// injections of an HxW square over the ccfg layout, each against a
// freshly populated cache. Cancellation is polled between trials, and
// trials fan out up to the context's worker hint; trial i runs on
// stream seed+i whatever the worker count, so the counts do not depend
// on it.
func RunSpatialTrialsCfgCtx(ctx context.Context, ccfg cache.Config, mk SchemeFactory, h, w, trials int, seed int64) (Counts, error) {
	return countTrials(ctx, trials, func(_ context.Context, a *Arena, i int) (Outcome, error) {
		camp := a.newCampaign(ccfg, mk, seed+int64(i))
		defer a.endTrial()
		camp.Populate(4000, 8192)
		if camp.InjectSpatial(h, w) == 0 {
			return Corrected, nil // nothing flipped: benign placement
		}
		return camp.Probe(), nil
	})
}

// RunTemporalTrialsCtx injects `bits` independent single-bit flips at
// random resident words of the campaign cache (temporal multi-bit when
// bits > 1), per trial. Cancellation and trial parallelism work as in
// RunSpatialTrialsCfgCtx; the counts do not depend on the worker count.
func RunTemporalTrialsCtx(ctx context.Context, mk SchemeFactory, bits, trials int, seed int64) (Counts, error) {
	return countTrials(ctx, trials, func(_ context.Context, a *Arena, i int) (Outcome, error) {
		camp := a.newCampaign(CampaignCacheConfig(), mk, seed+int64(i))
		defer a.endTrial()
		camp.Populate(4000, 8192)
		flipped := 0
		for flipped < bits {
			addr := uint64(camp.rng.Intn(8192/8)) * 8
			if camp.InjectWord(addr, 1<<uint(camp.rng.Intn(64))) {
				flipped++
			}
		}
		return camp.Probe(), nil
	})
}

// CoverageMatrixCfgCtx sweeps spatial squares from 1x1 to maxSize x
// maxSize over the ccfg layout and returns the per-shape counts, indexed
// [height-1][width-1]. Cancellation is polled between trials.
func CoverageMatrixCfgCtx(ctx context.Context, ccfg cache.Config, mk SchemeFactory, maxSize, trials int, seed int64) ([][]Counts, error) {
	m := make([][]Counts, maxSize)
	for h := 1; h <= maxSize; h++ {
		m[h-1] = make([]Counts, maxSize)
		for w := 1; w <= maxSize; w++ {
			counts, err := RunSpatialTrialsCfgCtx(ctx, ccfg, mk, h, w, trials, seed+int64(h*100+w))
			if err != nil {
				return nil, err
			}
			m[h-1][w-1] = counts
		}
	}
	return m, nil
}

// FormatMatrix renders a coverage matrix as rows of correction rates.
func FormatMatrix(m [][]Counts) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s", "HxW")
	for w := 1; w <= len(m); w++ {
		fmt.Fprintf(&b, "%7d", w)
	}
	b.WriteByte('\n')
	for h := range m {
		fmt.Fprintf(&b, "%4d", h+1)
		for w := range m[h] {
			fmt.Fprintf(&b, "%7.2f", m[h][w].CoverageRate())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
