// Command pearltrain runs the paper's §IV.A machine-learning pipeline for
// one reservation window: two-pass data collection (random states, then
// model-driven states), λ tuning on the validation pairs, final fit, and
// evaluation on the test pairs (the §IV.C NRMSE numbers).
//
// The trained model is written as a versioned, content-hashed artifact
// (internal/models) that pearld can serve from its -model-dir or via
// POST /v1/models. Name the file rw<window>.json and pearld resolves
// it as the default model for that reservation window.
//
// Usage:
//
//	pearltrain -window 500 -out rw500.json
//	pearltrain -window 2000 -quick
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args, trains and evaluates the model and writes the report
// to stdout; usage and errors go to stderr. It returns the exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("pearltrain", flag.ContinueOnError)
	var (
		window = fs.Int("window", 500, "reservation window in cycles")
		out    = fs.String("out", "", "write the trained model artifact here (e.g. rw500.json)")
		quick  = fs.Bool("quick", false, "reduced data collection for smoke runs")
		seed   = fs.Uint64("seed", 2018, "experiment seed")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if err := train(stdout, *window, *out, *quick, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "pearltrain:", err)
		return 1
	}
	return 0
}

func train(stdout io.Writer, window int, out string, quick bool, seed uint64) error {
	opts := experiments.Full()
	if quick {
		opts = experiments.Quick()
	}
	opts.Seed = seed

	fmt.Fprintf(stdout, "training ridge model for RW%d (%d train pairs, %d validation pairs)\n",
		window, len(opts.TrainPairs), len(opts.ValPairs))
	start := time.Now()
	model, err := experiments.Train(window, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trained in %v: lambda=%g validation NRMSE score=%.3f hash=%s\n",
		time.Since(start), model.Lambda, model.ValScore, model.Hash[:12])

	ev, err := experiments.Evaluate(model, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "test pairs (%d examples):\n", ev.Examples)
	fmt.Fprintf(stdout, "  NRMSE score:        %.3f (paper: 0.68 at RW500, 0.05 at RW2000)\n", ev.TestScore)
	fmt.Fprintf(stdout, "  top-state accuracy: %.1f%% (paper: 99.9%% at RW2000)\n", 100*ev.TopStateAccuracy)
	fmt.Fprintf(stdout, "  exact-state agree:  %.1f%%\n", 100*ev.StateAccuracy)

	if out != "" {
		// Provenance only — the content hash deliberately excludes it.
		model.Meta.TrainedAt = time.Now().UTC().Format(time.RFC3339)
		if err := model.SaveFile(out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "model artifact written to %s (hash %s)\n", out, model.Hash)
	}
	return nil
}
