// Command pearltrace records and replays packet-injection traces — the
// capture layer standing in for the paper's Multi2Sim trace files.
//
// Record a workload's injection stream:
//
//	pearltrace record -cpu fmm -gpu DCT -cycles 30000 -out fmm_dct.trc
//
// Replay a trace into any network configuration (open loop: the recorded
// injections are applied verbatim, isolating network effects from
// workload feedback):
//
//	pearltrace replay -in fmm_dct.trc -config static-16
//	pearltrace replay -in fmm_dct.trc -config cmesh
//
// Inspect a trace:
//
//	pearltrace info -in fmm_dct.trc
//	pearltrace export -in fmm_dct.trc -out fmm_dct.json
//
// Fit synthetic benchmark profiles to a trace (the calibration path from
// real traces to the statistical substrate):
//
//	pearltrace calibrate -in fmm_dct.trc
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cmesh"
	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// commands maps each subcommand to its implementation, which parses its
// flags from args into fs and writes its report to stdout.
var commands = map[string]func(fs *flag.FlagSet, args []string, stdout io.Writer) error{
	"record":    record,
	"replay":    replay,
	"info":      info,
	"export":    export,
	"calibrate": calibrate,
}

// run dispatches the subcommand args[0], writing its report to stdout
// and usage and errors to stderr. It returns the exit status: 0 on
// success or -h, 2 for a missing or unknown subcommand or a bad flag,
// and 1 when the subcommand fails.
func run(args []string, stdout, stderr io.Writer) int {
	const usage = "usage: pearltrace {record|replay|info|export|calibrate} [flags]"
	if len(args) > 0 && (args[0] == "-h" || args[0] == "-help" || args[0] == "--help") {
		fmt.Fprintln(stdout, usage)
		return 0
	}
	var cmd func(*flag.FlagSet, []string, io.Writer) error
	if len(args) > 0 {
		cmd = commands[args[0]]
	}
	if cmd == nil {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	switch err := cmd(fs, args[1:], stdout).(type) {
	case nil:
		return 0
	case flagError:
		if errors.Is(err.error, flag.ErrHelp) {
			return 0
		}
		return 2
	default:
		fmt.Fprintln(stderr, "pearltrace:", err)
		return 1
	}
}

// flagError is a subcommand's failure to parse its flags, which the
// flag set has already reported.
type flagError struct{ error }

func record(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	cpu := fs.String("cpu", "fmm", "CPU benchmark")
	gpu := fs.String("gpu", "DCT", "GPU benchmark")
	cycles := fs.Int64("cycles", 30000, "cycles to record")
	seed := fs.Uint64("seed", 2018, "workload seed")
	out := fs.String("out", "trace.trc", "output file")
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}
	cpuP, err := traffic.ProfileByName(*cpu)
	if err != nil {
		return err
	}
	gpuP, err := traffic.ProfileByName(*gpu)
	if err != nil {
		return err
	}

	engine := sim.NewEngine()
	net, err := core.New(engine, config.PEARLDyn())
	if err != nil {
		return err
	}
	rec := &trace.Recorder{}
	target := rec.Wrap(net)
	w, err := traffic.NewWorkload(engine, target, traffic.Pair{CPU: cpuP, GPU: gpuP}, *seed)
	if err != nil {
		return err
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(*cycles)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := trace.WriteAll(f, rec.Records()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d injections over %d cycles to %s\n", rec.Len(), *cycles, *out)
	return nil
}

func replay(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	in := fs.String("in", "trace.trc", "input trace")
	configName := fs.String("config", "pearl-dyn", "network configuration (any config preset, e.g. static-16 or proteus-rw500, or cmesh)")
	drain := fs.Int64("drain", 20000, "extra cycles to drain in-flight packets")
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}
	records, err := readTrace(*in)
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return fmt.Errorf("trace %s is empty", *in)
	}

	engine := sim.NewEngine()
	var target interface {
		Inject(p *noc.Packet) bool
	}
	var metricsOf func() string
	var register func()
	if strings.EqualFold(*configName, "cmesh") {
		net, err := cmesh.New(engine, config.Default())
		if err != nil {
			return err
		}
		net.StartMeasurement()
		target = net
		register = func() { engine.Register(net) }
		metricsOf = func() string {
			net.StopMeasurement(engine.Cycle())
			return net.Metrics().String()
		}
	} else {
		cfg, err := config.ByName(*configName)
		if err != nil {
			return err
		}
		net, err := core.New(engine, cfg)
		if err != nil {
			return err
		}
		// The preset's registered controller drives the wavelength states.
		// Replay takes no model, so the ML presets stop here with the
		// controller's "needs a trained model" error.
		ctrl, err := controller.New(cfg, nil)
		if err != nil {
			return err
		}
		policy, err := ctrl.Policy(0)
		if err != nil {
			return err
		}
		net.SetStatePolicy(policy)
		net.StartMeasurement()
		target = net
		register = func() { engine.Register(net) }
		metricsOf = func() string {
			net.StopMeasurement(engine.Cycle())
			return net.Metrics().String()
		}
	}

	player, err := trace.NewPlayer(target, records)
	if err != nil {
		return err
	}
	engine.Register(player)
	register()

	last := records[len(records)-1].InjectCycle
	engine.Run(last + 1)
	engine.RunUntil(player.Done, *drain)
	engine.Run(*drain)

	fmt.Fprintf(stdout, "replayed %d of %d packets into %s\n", player.Injected, len(records), *configName)
	fmt.Fprintln(stdout, metricsOf())
	return nil
}

func info(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	in := fs.String("in", "trace.trc", "input trace")
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}
	records, err := readTrace(*in)
	if err != nil {
		return err
	}
	var cpu, gpu, requests, bits int
	for _, r := range records {
		if r.Class == noc.ClassCPU {
			cpu++
		} else {
			gpu++
		}
		if r.Kind == noc.KindRequest {
			requests++
		}
		bits += int(r.SizeBits)
	}
	span := int64(0)
	if len(records) > 0 {
		span = records[len(records)-1].InjectCycle - records[0].InjectCycle
	}
	fmt.Fprintf(stdout, "records:   %d (%d CPU / %d GPU, %d requests)\n", len(records), cpu, gpu, requests)
	fmt.Fprintf(stdout, "span:      %d cycles\n", span)
	fmt.Fprintf(stdout, "payload:   %d bits (%.1f bits/cycle offered)\n", bits, float64(bits)/float64(span+1))
	return nil
}

func export(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	in := fs.String("in", "trace.trc", "input trace")
	out := fs.String("out", "trace.json", "output JSON")
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}
	records, err := readTrace(*in)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := trace.WriteJSON(f, records); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "exported %d records to %s\n", len(records), *out)
	return nil
}

func calibrate(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	in := fs.String("in", "trace.trc", "input trace")
	window := fs.Int64("window", 500, "rate-aggregation window (cycles)")
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}
	records, err := readTrace(*in)
	if err != nil {
		return err
	}
	events := make([]traffic.InjectionEvent, len(records))
	for i, r := range records {
		events[i] = traffic.InjectionEvent{
			Cycle: r.InjectCycle, Class: r.Class, Kind: r.Kind, Dst: int(r.Dst),
		}
	}
	for _, class := range []noc.Class{noc.ClassCPU, noc.ClassGPU} {
		p, err := traffic.EstimateProfile(
			fmt.Sprintf("%s-fit", class), class, events,
			config.NumClusterRouters, *window, config.L3RouterID)
		if err != nil {
			fmt.Fprintf(stdout, "%s: %v\n", class, err)
			continue
		}
		fmt.Fprintf(stdout, "%s profile fit:\n", class)
		fmt.Fprintf(stdout, "  base rate     %.4f pkt/cycle/router\n", p.BaseRate)
		fmt.Fprintf(stdout, "  burst rate    %.4f pkt/cycle/router\n", p.BurstRate)
		fmt.Fprintf(stdout, "  burst entry   %.5f /cycle (mean gap %.0f cycles)\n", p.BurstEntry, 1/p.BurstEntry)
		fmt.Fprintf(stdout, "  burst exit    %.5f /cycle (mean burst %.0f cycles)\n", p.BurstExit, 1/p.BurstExit)
		fmt.Fprintf(stdout, "  duty cycle    %.1f%%\n", 100*p.BurstEntry/(p.BurstEntry+p.BurstExit))
		fmt.Fprintf(stdout, "  L3 fraction   %.2f   write fraction %.2f\n", p.L3Fraction, p.WriteFraction)
	}
	return nil
}

func readTrace(path string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadAll(f)
}
