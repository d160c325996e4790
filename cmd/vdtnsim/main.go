// Command vdtnsim runs a single VDTN scenario and prints its metrics.
//
// Usage:
//
//	vdtnsim [flags]
//
// With no flags it runs the paper's default scenario (Epidemic FIFO-FIFO,
// 60-minute TTL, 12 simulated hours). Examples:
//
//	vdtnsim -protocol spraywait -policy lifetime -ttl 120
//	vdtnsim -protocol maxprop -ttl 180 -seed 7
//	vdtnsim -vehicles 80 -relays 10 -rate 2 -duration 6
//	vdtnsim -record-contacts run.contactsb         # capture the contact trace
//	vdtnsim -replay-contacts run.contactsb -ttl 90 # re-run it, bit-identically
//	vdtnsim -contacts-info run.contactsb           # inspect a recorded trace
//	vdtnsim -policy lifetime -cpuprofile cpu.out   # profile with runtime/pprof
//
// -record-contacts records the trace from mobility alone, encodes it once,
// then runs the scenario replaying a view of those bytes and writes them
// out; the printed metrics equal a live run's, as do those of a later
// -replay-contacts run with the same scenario flags.
// Contact traces are written in the integrity-checked binary codec (magic
// + CRC32; see internal/wireless/FORMAT.md) and read back into a
// read-only view, validated once at open. A trace damaged
// anywhere — truncation, bit rot, torn copy — is rejected, never replayed
// as a shorter run.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"vdtn"
	"vdtn/internal/profiling"
	"vdtn/internal/reports"
	"vdtn/internal/scenario"
	"vdtn/internal/sim"
	"vdtn/internal/stats"
	"vdtn/internal/trace"
	"vdtn/internal/units"
)

// axisFlags maps each scalar scenario flag to the sweep axis that applies
// it, so the flag shares the axis's unit conversion.
var axisFlags = [...]struct{ flag, axis string }{
	{"ttl", "ttl_min"},
	{"vehicles", "vehicles"},
	{"relays", "relays"},
	{"buf", "vehicle_buffer_mb"},
	{"relaybuf", "relay_buffer_mb"},
	{"rate", "rate_mbit"},
	{"range", "range_m"},
	{"copies", "copies"},
	{"warmup", "warmup_min"},
}

func main() {
	protoNames := strings.Join(sim.ProtocolKeys(), "|")
	polNames := strings.Join(sim.PolicyKeys(), "|")
	var (
		protoName = flag.String("protocol", "epidemic", "routing protocol: "+protoNames)
		polName   = flag.String("policy", "fifo", "scheduling-dropping policy: "+polNames)
		_         = flag.Float64("ttl", 60, "message TTL in minutes")
		durationH = flag.Float64("duration", 12, "simulated duration in hours")
		seed      = flag.Uint64("seed", 1, "master random seed")
		_         = flag.Int("vehicles", 40, "number of vehicles")
		_         = flag.Int("relays", 5, "number of stationary relay nodes")
		_         = flag.Float64("buf", 100, "vehicle buffer size in MB")
		_         = flag.Float64("relaybuf", 500, "relay buffer size in MB")
		_         = flag.Float64("rate", 6, "link data rate in Mbit/s")
		_         = flag.Float64("range", 30, "radio range in metres")
		_         = flag.Int("copies", 12, "Spray and Wait copy budget N")
		_         = flag.Float64("warmup", 0, "exclude messages created before this many minutes")
		contacts  = flag.String("contacts", "", "contact-plan file (\"start end a b\" lines); replaces mobility")
		recordTo  = flag.String("record-contacts", "", "record the contact trace from mobility alone, write it to this file for later -replay-contacts, and run the scenario replaying it")
		replayOf  = flag.String("replay-contacts", "", "replay a recorded contact trace instead of simulating mobility (scenario flags must match the recording run)")
		inspect   = flag.String("contacts-info", "", "print a summary of a recorded contact trace and exit")
		confFile  = flag.String("config", "", "load the scenario from a JSON file (other flags still override)")
		dumpConf  = flag.Bool("dump-config", false, "print the effective scenario as JSON and exit")
		traceFile = flag.String("trace", "", "write the full event trace as TSV to this file")
		analyze   = flag.Bool("analyze", false, "print offline trace analysis (contacts, paths, fates)")
		verbose   = flag.Bool("v", false, "also print scenario parameters")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()

	proto, ok := sim.ParseProtocol(strings.ToLower(*protoName))
	if !ok {
		fmt.Fprintf(os.Stderr, "vdtnsim: unknown protocol %q (want %s)\n", *protoName, protoNames)
		os.Exit(2)
	}
	pol, ok := sim.ParsePolicy(strings.ToLower(*polName))
	if !ok {
		fmt.Fprintf(os.Stderr, "vdtnsim: unknown policy %q (want %s)\n", *polName, polNames)
		os.Exit(2)
	}

	cfg := vdtn.DefaultConfig()
	if *confFile != "" {
		data, err := os.ReadFile(*confFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vdtnsim: %v\n", err)
			os.Exit(1)
		}
		cfg, err = scenario.Load(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vdtnsim: %v\n", err)
			os.Exit(1)
		}
	}
	// Explicit flags override the file.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *confFile == "" || set["protocol"] {
		cfg.Protocol = proto
	}
	if *confFile == "" || set["policy"] {
		cfg.Policy = pol
	}
	if *confFile == "" || set["seed"] {
		cfg.Seed = *seed
	}
	if *confFile == "" || set["duration"] {
		cfg.Duration = units.Hours(*durationH)
	}
	for _, af := range axisFlags {
		if *confFile == "" || set[af.flag] {
			// Every axis flag is an int or a float, whose String
			// round-trips exactly through ParseFloat.
			v, _ := strconv.ParseFloat(flag.Lookup(af.flag).Value.String(), 64)
			axis, _ := scenario.AxisByName(af.axis)
			axis.Apply(&cfg, v)
		}
	}
	if *dumpConf {
		data, err := scenario.Save("vdtnsim", cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vdtnsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}

	if *inspect != "" {
		view, err := vdtn.OpenContactRecordingView(*inspect)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vdtnsim: %v\n", err)
			os.Exit(1)
		}
		rec := view.Materialize()
		view.Close()
		plan, err := vdtn.RecordingPlan(rec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vdtnsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: contact recording, scan every %gs over %s\n",
			*inspect, rec.ScanInterval, units.FormatDuration(rec.Duration))
		fmt.Printf("transitions  %6d\n%s\n", len(rec.Transitions), plan.Summarize())
		return
	}

	if *recordTo != "" && *replayOf != "" {
		fmt.Fprintln(os.Stderr, "vdtnsim: -record-contacts and -replay-contacts are mutually exclusive")
		os.Exit(2)
	}
	if *replayOf != "" {
		view, err := vdtn.OpenContactRecordingView(*replayOf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vdtnsim: %v\n", err)
			os.Exit(1)
		}
		defer view.Close()
		cfg.ReplaySource = view
		// Follow the trace's horizon unless the user chose one — via the
		// -duration flag or a -config file (a chosen duration may shorten
		// the replay, never extend it).
		if !set["duration"] && *confFile == "" {
			cfg.Duration = view.Meta().Duration
		}
	}

	if *contacts != "" {
		data, err := os.ReadFile(*contacts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vdtnsim: %v\n", err)
			os.Exit(1)
		}
		plan, err := vdtn.ParseContactPlan(string(data))
		if err != nil {
			fmt.Fprintf(os.Stderr, "vdtnsim: %v\n", err)
			os.Exit(1)
		}
		cfg.Plan = plan
		if cfg.Vehicles+cfg.Relays <= plan.MaxNode() {
			cfg.Vehicles = plan.MaxNode() + 1
			cfg.Relays = 0
		}
	}

	tracker := reports.NewTracker()
	var tw *trace.Writer
	var traceOut *os.File
	flushTrace := func() error { return nil }
	switch {
	case *traceFile != "":
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vdtnsim: %v\n", err)
			os.Exit(1)
		}
		traceOut = f
		buffered := bufio.NewWriter(f)
		flushTrace = func() error {
			return errors.Join(buffered.Flush(), f.Close())
		}
		tw = trace.NewWriter(buffered)
		if *analyze {
			cfg.Trace = func(ev trace.Event) {
				tw.Emit(ev)
				tracker.Emit(ev)
			}
		} else {
			cfg.Trace = tw.Emit
		}
	case *analyze:
		cfg.Trace = tracker.Emit
	}

	if *verbose {
		fmt.Printf("scenario: %s\n", cfg.Label())
		fmt.Printf("  %d vehicles (%v), %d relays (%v)\n",
			cfg.Vehicles, cfg.VehicleBuffer, cfg.Relays, cfg.RelayBuffer)
		fmt.Printf("  radio %v at %.0f m, %s simulated\n",
			cfg.Rate, cfg.Range, units.FormatDuration(cfg.Duration))
	}

	// SIGINT/SIGTERM cancel the run cooperatively: the simulation stops at
	// its next event-loop checkpoint and the partial event trace (if any)
	// is still flushed before the non-zero exit.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	stopProfiles, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vdtnsim: %v\n", err)
		os.Exit(1)
	}
	var recorded []byte
	if *recordTo != "" {
		// The contacts-only pass produces the trace, encoded once: the run
		// replays a view of those bytes — bit-identical to a live run,
		// without simulating mobility twice — and they are what is written.
		// The pass validates only the contact fields, so the whole
		// scenario is validated first: a bad flag fails before a mobility
		// pass is spent.
		var rec *vdtn.ContactRecording
		if err = cfg.Validate(); err == nil {
			rec, err = vdtn.RecordContactsContext(ctx, cfg)
		}
		if err == nil {
			recorded = vdtn.EncodeContactRecordingBinary(rec)
			cfg.ReplaySource, err = vdtn.NewContactRecordingView(recorded)
		}
	}
	var result vdtn.Result
	if err == nil {
		result, err = vdtn.RunContext(ctx, cfg)
	}
	stopSignals()
	if perr := stopProfiles(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vdtnsim: %v\n", err)
		if errors.Is(err, context.Canceled) {
			if err := flushTrace(); err != nil {
				fmt.Fprintf(os.Stderr, "vdtnsim: trace write: %v\n", err)
			}
			os.Exit(130)
		}
		os.Exit(1)
	}
	fmt.Printf("%s  (seed %d)\n", result.Label, result.Seed)
	fmt.Println(result.Report)
	fmt.Printf("contacts       %6d\ntransfers      %6d started, %d completed, %d aborted\n",
		result.Contacts, result.TransfersStarted, result.TransfersCompleted, result.TransfersAborted)
	fmt.Printf("mean occupancy %8.1f%%\n", 100*result.MeanBufferOccupancy)

	if *analyze {
		analysis := tracker.Analysis(cfg.Duration)
		fmt.Printf("\n--- trace analysis ---\n%s", analysis)
		fmt.Println("busiest pairs:")
		for _, p := range analysis.TopPairs(5) {
			fmt.Printf("  %d <-> %d\n", p[0], p[1])
		}
		if delays := analysis.Delays(); len(delays) > 0 {
			maxD := delays[0]
			for _, d := range delays {
				if d > maxD {
					maxD = d
				}
			}
			h := stats.NewHistogram(0, maxD+1, 12)
			h.AddAll(delays)
			fmt.Printf("\ndelivery delay distribution:\n%s", h.Render(40, units.FormatDuration))
		}
	}
	if tw != nil {
		err := tw.Err()
		if ferr := flushTrace(); err == nil {
			err = ferr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "vdtnsim: trace write: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace written to %s\n", traceOut.Name())
	}
	if *recordTo != "" {
		if err := os.WriteFile(*recordTo, recorded, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "vdtnsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("contact trace (%d transitions, %d bytes) written to %s\n",
			cfg.ReplaySource.Len(), len(recorded), *recordTo)
	}
}
