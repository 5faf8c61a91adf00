package fault

// The deterministic trial executor. Every campaign runner in this
// package — spatial, temporal, fault-model and Monte-Carlo MTTF — is a
// loop of embarrassingly parallel trials: trial i draws every random
// decision from its own lagged-Fibonacci stream seeded seed+i, so
// trials share no state whatsoever. The executor exploits exactly that
// and nothing more:
//
//   - workers pull trial indices off a shared atomic counter;
//   - each trial runs on its own stream exactly as the sequential loop
//     ran it, inside a per-worker reusable simulator *arena*;
//   - per-trial results land in an index-addressed slice;
//   - the caller replays its reduction (additive Counts, the MTTF
//     float accumulators) in trial order after the barrier.
//
// Because assignment of trials to workers affects neither a trial's
// stream nor the reduction order, a campaign's output is bit-identical
// at any worker count — workers ∈ {1, N} are pinned against each other
// and against the pre-executor sequential code by the parallel_test.go
// matrix, the same way TestShardedSuiteByteIdentical pins the daemon's
// sharding.
//
// The worker budget rides on the context (internal/par): the daemon's
// scheduler sizes it from idle pool workers — the same transient facts
// that size Cluster.SetWorkers — and the standalone drivers size it
// from their -parallel flags. It is a wall-clock knob only, never part
// of a cell's identity or cache key.

import (
	"context"
	"sync"
	"sync/atomic"

	"cppc/internal/cache"
	"cppc/internal/lfrng"
	"cppc/internal/par"
	"cppc/internal/protect"
)

// Arena is one worker's reusable simulator: the campaign shell (rng,
// shadow map, probe scratch), the golden backing memory, and the
// Monte-Carlo trial state. Each trial still constructs its cache and
// controller fresh — cache.New recycles backing arrays through the
// Release() pool, so construction is cheap and the state-carrying parts
// (scheme registers, check bits, the fault plane) can never leak
// between trials — while everything that is safe to reuse is reset in
// place rather than reallocated.
type Arena struct {
	camp   Campaign
	mem    *cache.Memory
	rng    lfrng.Rand        // Monte-Carlo trial stream (reseeded per trial)
	golden map[uint64]uint64 // Monte-Carlo golden values (cleared per trial)
}

// arenaPool recycles arenas across campaigns, so repeated short cells
// (the fieldmc grid runs 144 of them) reuse the same maps and rng state
// blocks instead of growing fresh ones per cell.
var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// newCampaign builds one trial's protected cache on the arena and
// resets the campaign shell around it. The (32, 100) memory geometry is
// the one every campaign in this package uses.
func (a *Arena) newCampaign(ccfg cache.Config, mk SchemeFactory, seed int64) *Campaign {
	c := cache.New(ccfg)
	if a.mem == nil {
		a.mem = cache.NewMemory(32, 100)
	} else {
		a.mem.Reset()
	}
	ct := protect.NewController(c, mk(c), a.mem)
	a.camp.Reset(ct, a.mem, seed)
	return &a.camp
}

// endTrial recycles the trial's cache arrays (and its armed fault
// plane, if any) back into the construction pools.
func (a *Arena) endTrial() {
	if a.camp.Ct != nil {
		a.camp.Ct.C.Release()
		a.camp.Ct = nil
	}
}

// Campaign fan-out observability (surfaced as /metrics gauges next to
// the cells_* family): trialsExecuted counts every completed campaign
// trial in the process, trialWorkers the currently active executor
// workers (a sequential campaign counts one).
var (
	trialsExecuted atomic.Int64
	trialWorkers   atomic.Int64
)

// TrialsExecuted is the process-wide number of campaign trials
// completed since startup.
func TrialsExecuted() int64 { return trialsExecuted.Load() }

// TrialWorkers is the number of currently active campaign trial
// workers.
func TrialWorkers() int64 { return trialWorkers.Load() }

// runTrials executes trials 0..trials-1 through `run`, fanning across
// up to par.Workers(ctx) goroutines, and returns the index-addressed
// results. Each worker owns one pooled Arena for the life of the
// campaign. Cancellation is polled between trials here and inside long
// trials by `run` itself (the Monte-Carlo loop polls every
// cancelPollAccesses accesses); the first error cancels the remaining
// workers, the barrier waits for them to drain, and that first error is
// returned.
func runTrials[T any](ctx context.Context, trials int, run func(ctx context.Context, a *Arena, trial int) (T, error)) ([]T, error) {
	workers := par.Workers(ctx)
	if workers > trials {
		workers = trials
	}
	out := make([]T, trials)
	if workers <= 1 {
		a := arenaPool.Get().(*Arena)
		defer arenaPool.Put(a)
		trialWorkers.Add(1)
		defer trialWorkers.Add(-1)
		for i := 0; i < trials; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := run(ctx, a, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
			trialsExecuted.Add(1)
		}
		return out, nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	trialWorkers.Add(int64(workers))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer trialWorkers.Add(-1)
			a := arenaPool.Get().(*Arena)
			defer arenaPool.Put(a)
			for {
				i := int(next.Add(1)) - 1
				if i >= trials {
					return
				}
				if err := wctx.Err(); err != nil {
					fail(err)
					return
				}
				v, err := run(wctx, a, i)
				if err != nil {
					fail(err)
					return
				}
				out[i] = v
				trialsExecuted.Add(1)
			}
		}()
	}
	wg.Wait() // the barrier: no worker outlives the campaign
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// countTrials runs a campaign of single-outcome trials through
// runTrials and tallies the outcomes. The tally replays in trial order
// over the executor's index-addressed results (the additive reduction
// is order-free, but replaying in order keeps the rule uniform with the
// float accumulators of the MTTF campaign).
func countTrials(ctx context.Context, trials int, run func(ctx context.Context, a *Arena, trial int) (Outcome, error)) (Counts, error) {
	res, err := runTrials(ctx, trials, run)
	if err != nil {
		return Counts{}, err
	}
	var out Counts
	for _, o := range res {
		switch o {
		case Corrected:
			out.Corrected++
		case DUE:
			out.DUE++
		case SDC:
			out.SDC++
		}
	}
	return out, nil
}
