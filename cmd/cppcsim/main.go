// Command cppcsim runs one benchmark on one protection scheme through the
// Table 1 processor and memory hierarchy, printing CPI, cache statistics
// and dynamic energy:
//
//	cppcsim -bench mcf -scheme cppc
//	cppcsim -bench gzip -scheme parity-2d -n 2000000
//	cppcsim -list
//
// SIGINT/SIGTERM cancel a simulation cleanly mid-run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"cppc/internal/cache"
	"cppc/internal/energy"
	"cppc/internal/experiments"
	"cppc/internal/tables"
	"cppc/internal/trace"
)

func main() {
	var (
		bench  = flag.String("bench", "gzip", "benchmark profile name")
		scheme = flag.String("scheme", "cppc", "protection: parity-1d, cppc, secded, parity-2d")
		n      = flag.Int("n", 1_500_000, "instructions to measure")
		warmup = flag.Int("warmup", 500_000, "instructions to warm the caches")
		seed   = flag.Int64("seed", 1, "workload seed")
		list   = flag.Bool("list", false, "list benchmark profiles and exit")
		record = flag.String("record", "", "write the benchmark's instruction trace to this file and exit")
		replay = flag.String("tracefile", "", "replay a recorded trace instead of a synthetic benchmark")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the context; the instruction loop polls it,
	// so an interrupted simulation exits cleanly instead of being killed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *record != "" {
		prof, ok := trace.ProfileByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q (use -list)\n", *bench)
			os.Exit(1)
		}
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.WriteTrace(f, prof.NewGen(*seed), *warmup+*n); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d instructions of %s to %s\n", *warmup+*n, *bench, *record)
		return
	}

	if *list {
		t := tables.New("benchmark profiles", "name", "loads", "stores", "working set", "note")
		for _, p := range trace.Profiles() {
			note := ""
			switch p.Name {
			case "mcf":
				note = "miss-heavy (paper: ~80% L2 miss rate)"
			case "swim", "mgrid", "applu":
				note = "FP streaming"
			}
			t.Addf(p.Name, p.LoadFrac, p.StoreFrac,
				fmt.Sprintf("%dKB", p.WorkingSetBytes/1024), note)
		}
		fmt.Print(t.String())
		return
	}

	var id experiments.SchemeID
	switch *scheme {
	case "parity-1d":
		id = experiments.Parity1D
	case "cppc":
		id = experiments.CPPC
	case "secded":
		id = experiments.SECDED
	case "parity-2d":
		id = experiments.TwoDim
	default:
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *scheme)
		os.Exit(1)
	}
	budget := experiments.Budget{Warmup: *warmup, Measure: *n, Seed: *seed}

	var (
		run experiments.Run
		err error
	)
	workload := *bench
	if *replay != "" {
		f, ferr := os.Open(*replay)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		src, perr := trace.ParseTrace(f)
		f.Close()
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			os.Exit(1)
		}
		workload = *replay
		run, err = experiments.SimulateSourceCtx(ctx, workload, src, id, budget)
	} else {
		prof, ok := trace.ProfileByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q (use -list)\n", *bench)
			os.Exit(1)
		}
		run, err = experiments.SimulateCtx(ctx, prof, id, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cppcsim: interrupted: %v\n", err)
		os.Exit(1)
	}

	t := tables.New(fmt.Sprintf("%s on %s (%d instructions)", *scheme, workload, *n),
		"metric", "L1", "L2")
	t.Addf("CPI", fmt.Sprintf("%.3f", run.CPI), "")
	t.Addf("accesses", run.L1.Accesses(), run.L2.Accesses())
	t.Addf("miss rate", tables.Pct(run.L1.MissRate()), tables.Pct(run.L2.MissRate()))
	t.Addf("read-before-writes", run.L1.ReadBeforeWrite, run.L2.ReadBeforeWrite)
	t.Addf("write-backs", run.L1.WriteBack, run.L2.WriteBack)
	t.Addf("dirty fraction", tables.Pct(run.L1Gran.Dirty), tables.Pct(run.L2Gran.Dirty))
	t.Addf("Tavg (cycles)", fmt.Sprintf("%.0f", run.L1Gran.Tavg), fmt.Sprintf("%.0f", run.L2Gran.Tavg))

	l1m := energy.New(cache.L1DConfig(), 8, 1)
	l2m := energy.New(cache.L2Config(), 8, 1)
	e1 := energy.Count(run.L1, l1m, 1, run.Folds.L1)
	e2 := energy.Count(run.L2, l2m, 4, run.Folds.L2)
	t.Addf("dynamic energy (uJ)",
		fmt.Sprintf("%.2f", e1.Total()/1e6), fmt.Sprintf("%.2f", e2.Total()/1e6))
	fmt.Print(t.String())
}
