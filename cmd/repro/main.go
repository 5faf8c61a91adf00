// Command repro regenerates every table and figure of the paper's
// evaluation section plus the quantitative claims of Secs. 4.6-4.8:
//
//	repro                  # everything, default budget
//	repro -quick           # smaller instruction budget
//	repro -table1 -fig10   # selected experiments only
//
// Output is textual tables; EXPERIMENTS.md records a reference run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"cppc/internal/experiments"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "use the reduced instruction budget")
		seed     = flag.Int64("seed", 1, "workload seed")
		trials   = flag.Int("trials", 20, "Monte-Carlo trials per fault shape")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulations in the suite and trial workers per fault campaign")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		table1   = flag.Bool("table1", false, "print Table 1 (configuration)")
		fig10    = flag.Bool("fig10", false, "reproduce Figure 10 (CPI)")
		fig11    = flag.Bool("fig11", false, "reproduce Figure 11 (L1 energy)")
		fig12    = flag.Bool("fig12", false, "reproduce Figure 12 (L2 energy)")
		table2   = flag.Bool("table2", false, "reproduce Table 2 (dirty data)")
		table3   = flag.Bool("table3", false, "reproduce Table 3 (MTTF)")
		sec47    = flag.Bool("sec47", false, "reproduce Sec. 4.7 (aliasing MTTF)")
		sec48    = flag.Bool("sec48", false, "reproduce Sec. 4.8 (barrel shifter)")
		sec7     = flag.Bool("sec7", false, "Sec. 7 multiprocessor extension (coherence vs. RBW)")
		sec51    = flag.Bool("sec51", false, "Sec. 5.1 area comparison")
		mc       = flag.Bool("montecarlo", false, "PARMA-style Monte-Carlo validation of the MTTF models")
		fieldmc  = flag.Bool("fieldmc", false, "field-mix fault campaign: footprint x lifetime x rate grid (opt-in, not part of the default run)")
		l3       = flag.Bool("l3", false, "Sec. 7 L3 CPPC study")
		csv      = flag.Bool("csv", false, "emit the figures as CSV instead of text tables")
		coverage = flag.Bool("coverage", false, "spatial coverage matrices (Secs. 4.6/4.11)")
		ablate   = flag.Bool("ablate", false, "register-pair and parity-degree ablations")
	)
	flag.Parse()

	// SIGINT/SIGTERM (and -timeout) cancel the context; the simulation
	// loops poll it, so an interrupted run exits cleanly mid-suite
	// instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "repro: interrupted: %v\n", err)
		os.Exit(1)
	}
	checkCtx := func() {
		if err := ctx.Err(); err != nil {
			fail(err)
		}
	}
	all := !(*table1 || *fig10 || *fig11 || *fig12 || *table2 || *table3 ||
		*sec47 || *sec48 || *sec7 || *sec51 || *mc || *fieldmc || *l3 || *coverage || *ablate)

	budget := experiments.DefaultBudget()
	if *quick {
		budget = experiments.QuickBudget()
	}
	budget.Seed = *seed

	if all || *table1 {
		fmt.Println(experiments.Table1())
	}

	needSuite := all || *fig10 || *fig11 || *fig12 || *table2 || *table3
	var suite *experiments.Suite
	if needSuite {
		fmt.Fprintf(os.Stderr, "simulating %d benchmarks x 4 schemes (%d+%d instructions each, %d-way parallel)...\n",
			15, budget.Warmup, budget.Measure, *parallel)
		var err error
		suite, err = experiments.RunSuiteCtx(ctx, budget, experiments.SuiteOptions{Parallel: *parallel})
		if err != nil {
			fail(err)
		}
	}
	if all || *fig10 {
		if *csv {
			fmt.Println(suite.Figure10CSV())
		} else {
			fmt.Println(suite.Figure10())
		}
	}
	if all || *fig11 {
		if *csv {
			fmt.Println(suite.Figure11CSV())
		} else {
			fmt.Println(suite.Figure11())
		}
	}
	if all || *fig12 {
		if *csv {
			fmt.Println(suite.Figure12CSV())
		} else {
			fmt.Println(suite.Figure12())
		}
	}
	if all || *table2 {
		fmt.Println(suite.Table2String())
	}
	if all || *table3 {
		fmt.Println(suite.Table3())
	}
	if all || *sec47 {
		fmt.Println(experiments.Section47())
	}
	if all || *sec48 {
		fmt.Println(experiments.Section48())
	}
	if all || *sec7 {
		checkCtx()
		fmt.Fprintln(os.Stderr, "running the timed Sec. 7 multiprocessor sweep...")
		out, err := experiments.Section7MulticoreCtx(ctx, budget)
		if err != nil {
			fail(err)
		}
		fmt.Println(out)
	}
	if all || *sec51 {
		fmt.Println(experiments.Section51Area(1))
	}
	// Fault campaigns fan their trials across -parallel workers; the
	// tables are bit-identical whatever the count (the trial executor
	// replays its reduction in trial order — DESIGN.md, "Deterministic
	// trial parallelism").
	campCtx := experiments.WithCellWorkers(ctx, *parallel)
	if all || *mc {
		checkCtx()
		fmt.Fprintln(os.Stderr, "running Monte-Carlo lifetime campaigns...")
		out, err := experiments.MonteCarloValidationCtx(campCtx, *trials, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(out)
	}
	// The field-mix grid is opt-in (not part of `all`): it is the one
	// campaign whose trials run a full exercise window each, and keeping
	// it out of the default run keeps repro_output.txt stable.
	if *fieldmc {
		checkCtx()
		fmt.Fprintf(os.Stderr, "running field-mix fault campaigns (%d trials/cell)...\n", *trials)
		out, err := experiments.FieldMCCtx(campCtx, *trials, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(out)
	}
	if all || *l3 {
		checkCtx()
		fmt.Fprintln(os.Stderr, "running the L3 study...")
		out, err := experiments.SectionL3Ctx(ctx, budget)
		if err != nil {
			fail(err)
		}
		fmt.Println(out)
	}
	if all || *coverage {
		checkCtx()
		fmt.Fprintf(os.Stderr, "running spatial coverage campaigns (%d trials/shape)...\n", *trials)
		out, err := experiments.SpatialCoverageCtx(campCtx, *trials, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(out)
	}
	if all || *ablate {
		checkCtx()
		for _, run := range []func() (string, error){
			func() (string, error) { return experiments.PairAblationCtx(campCtx, *trials, *seed) },
			func() (string, error) { return experiments.ParityAblationCtx(campCtx, *trials, *seed) },
			func() (string, error) { return experiments.SinglePortAblation(ctx, budget) },
			func() (string, error) { return experiments.EarlyWritebackAblation(ctx, 200_000, *seed) },
			func() (string, error) { return experiments.ICacheAblation(ctx, budget) },
			func() (string, error) { return experiments.SilentStoreAblation(ctx, budget) },
		} {
			out, err := run()
			if err != nil {
				fail(err)
			}
			fmt.Println(out)
		}
	}
}
