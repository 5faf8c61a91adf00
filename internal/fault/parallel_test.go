package fault

import (
	"context"
	"runtime"
	"testing"
	"time"

	"cppc/internal/core"
	"cppc/internal/par"
)

// The determinism matrix: every campaign kind must produce bit-identical
// results at workers ∈ {1, 8}. The 1-worker run takes the sequential
// fast path in runTrials, so this also pins the parallel executor
// against the sequential semantics the pre-executor code had. Run under
// -race in CI, this doubles as the data-race proof for the arena reuse.

func workersCtx(n int) context.Context {
	return par.WithWorkers(context.Background(), n)
}

func TestSpatialBitIdenticalAcrossWorkers(t *testing.T) {
	mk := cppcFactory(core.DefaultL1Config())
	base, err := RunSpatialTrialsCfgCtx(workersCtx(1), CampaignCacheConfig(), mk, 8, 8, 24, 101)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSpatialTrialsCfgCtx(workersCtx(8), CampaignCacheConfig(), mk, 8, 8, 24, 101)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Errorf("spatial: 8 workers %+v != 1 worker %+v", got, base)
	}
}

func TestTemporalBitIdenticalAcrossWorkers(t *testing.T) {
	base, err := RunTemporalTrialsCtx(workersCtx(1), parityFactory(), 2, 24, 103)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunTemporalTrialsCtx(workersCtx(8), parityFactory(), 2, 24, 103)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Errorf("temporal: 8 workers %+v != 1 worker %+v", got, base)
	}
}

func TestModelBitIdenticalAcrossWorkers(t *testing.T) {
	// Stuck and intermittent lifetimes arm the fault plane, so this leg
	// also proves the pooled planes carry no state between trials.
	models := []Model{
		{Foot: FootWord, Life: Transient},
		{Foot: FootRow, Life: StuckAt},
		{Foot: FootColumn, Life: Intermittent},
		{Foot: FootBank, Life: StuckAt},
	}
	mk := cppcFactory(core.DefaultL1Config())
	for _, m := range models {
		base, err := RunModelTrialsCtx(workersCtx(1), CampaignCacheConfig(), mk, m, 2, 12, 107)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunModelTrialsCtx(workersCtx(8), CampaignCacheConfig(), mk, m, 2, 12, 107)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Errorf("%s: 8 workers %+v != 1 worker %+v", m, got, base)
		}
	}
}

func TestMTTFBitIdenticalAcrossWorkers(t *testing.T) {
	// MCResult carries float accumulators (mean lifetime, dirty bits,
	// Tavg); the struct compare below demands exact float equality, which
	// only holds because the executor replays its reduction in trial
	// order.
	base, err := MonteCarloMTTFCtx(workersCtx(1), parityFactory(), 2e-5, 12, 30_000, 109)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MonteCarloMTTFCtx(workersCtx(8), parityFactory(), 2e-5, 12, 30_000, 109)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Errorf("mttf: 8 workers %+v != 1 worker %+v", got, base)
	}
	if base.DUEs == 0 {
		t.Errorf("campaign too tame to compare anything: %+v", base)
	}
}

func TestTrialGauges(t *testing.T) {
	before := TrialsExecuted()
	if _, err := RunTemporalTrialsCtx(workersCtx(4), parityFactory(), 1, 16, 113); err != nil {
		t.Fatal(err)
	}
	if got := TrialsExecuted() - before; got != 16 {
		t.Errorf("TrialsExecuted advanced by %d, want 16", got)
	}
	if w := TrialWorkers(); w != 0 {
		t.Errorf("TrialWorkers = %d after campaign end, want 0", w)
	}
}

func TestCancellationMidCampaign(t *testing.T) {
	// A long campaign (lambda 0: every trial runs its full horizon) at 8
	// workers, canceled shortly after start: the run must return the
	// context's error promptly — the in-trial poll fires every
	// cancelPollAccesses accesses — and the barrier must drain every
	// worker before MonteCarloMTTFCtx returns.
	ctx, cancel := context.WithCancel(workersCtx(8))
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := MonteCarloMTTFCtx(ctx, parityFactory(), 0, 64, 50_000_000, 127)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Uncanceled, 64 x 50M-access trials would run for minutes; the
	// generous bound still proves the abort was the poll, not the
	// horizon. (-race and a loaded CI box are why it is not tighter.)
	if elapsed > 30*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	if w := TrialWorkers(); w != 0 {
		t.Errorf("TrialWorkers = %d after canceled campaign, want 0 (leaked workers)", w)
	}
}

func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunTemporalTrialsCtx(ctx, parityFactory(), 1, 8, 1); err != context.Canceled {
		t.Errorf("sequential path: err = %v, want context.Canceled", err)
	}
	if _, err := RunTemporalTrialsCtx(par.WithWorkers(ctx, 8), parityFactory(), 1, 8, 1); err != context.Canceled {
		t.Errorf("parallel path: err = %v, want context.Canceled", err)
	}
}

func TestWorkersCappedByTrials(t *testing.T) {
	// More workers than trials must not spin up idle goroutines or change
	// results; 3 trials at 64 workers runs 3 workers.
	base, err := RunTemporalTrialsCtx(workersCtx(1), parityFactory(), 1, 3, 131)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunTemporalTrialsCtx(workersCtx(64), parityFactory(), 1, 3, 131)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Errorf("64 workers over 3 trials %+v != sequential %+v", got, base)
	}
}

func TestTrialParallelSpeedup(t *testing.T) {
	// The wall-clock claim: 8 workers beat 1 on an MTTF campaign. Only
	// meaningful with real cores under the workers, so gate like
	// service's TestShardedSuiteSpeedup.
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.GOMAXPROCS(0) < 8 {
		t.Skipf("GOMAXPROCS=%d, need 8 cores for a meaningful speedup bound", runtime.GOMAXPROCS(0))
	}
	run := func(workers int) time.Duration {
		start := time.Now()
		if _, err := MonteCarloMTTFCtx(workersCtx(workers), parityFactory(), 0, 16, 300_000, 137); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	seq := run(1)
	pll := run(8)
	if speedup := float64(seq) / float64(pll); speedup < 3 {
		t.Errorf("8-worker speedup = %.2fx (seq %v, parallel %v), want >= 3x", speedup, seq, pll)
	}
}
