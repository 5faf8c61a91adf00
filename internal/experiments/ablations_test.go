package experiments

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSimulationAblationsHonourCancellation: every simulation ablation
// must stop within one poll interval of its context being canceled —
// both when the context is dead on entry and when it dies mid-run. At
// the default budget each ablation would otherwise simulate for minutes,
// so the generous bound below still separates "polled" from "ignored".
func TestSimulationAblationsHonourCancellation(t *testing.T) {
	b := DefaultBudget()
	ablations := []struct {
		name string
		run  func(ctx context.Context) (string, error)
	}{
		{"single-port", func(ctx context.Context) (string, error) { return SinglePortAblation(ctx, b) }},
		{"icache", func(ctx context.Context) (string, error) { return ICacheAblation(ctx, b) }},
		{"silent-store", func(ctx context.Context) (string, error) { return SilentStoreAblation(ctx, b) }},
		{"early-writeback", func(ctx context.Context) (string, error) { return EarlyWritebackAblation(ctx, 5_000_000, 1) }},
	}
	const bound = 2 * time.Second
	for _, a := range ablations {
		for _, midRun := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			var canceledAt time.Time
			if midRun {
				canceledAt = time.Now().Add(20 * time.Millisecond)
				time.AfterFunc(20*time.Millisecond, cancel)
			} else {
				canceledAt = time.Now()
				cancel()
			}
			out, err := a.run(ctx)
			late := time.Since(canceledAt)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s (mid-run %v): err = %v, want context.Canceled", a.name, midRun, err)
			}
			if out != "" {
				t.Errorf("%s (mid-run %v): canceled run still rendered a table", a.name, midRun)
			}
			if late > bound {
				t.Errorf("%s (mid-run %v): returned %v after cancellation, want < %v", a.name, midRun, late, bound)
			}
		}
	}
}
