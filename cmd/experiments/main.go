// Command experiments runs sweep experiments: the paper's evaluation —
// each figure of Soares et al. (ICPP 2009) and the ablations listed in
// DESIGN.md — plus any user-defined sweep loaded from a JSON spec file.
//
// Usage:
//
//	experiments -list
//	experiments -figure fig4
//	experiments -figure all -seeds 5 -out results/
//	experiments -figure fig8 -scale 0.25        # quick shape check
//	experiments -spec mysweep.json              # run a sweep defined as data
//	experiments -figure fig5 -metric overhead   # another metric, same sweep
//	experiments -dump-spec fig5                 # print a figure as a spec file
//	experiments -figure all -contact-cache      # one mobility sim per seed
//	experiments -cache-dir traces/ -seeds 5     # persist traces across runs
//	experiments -cache-dir traces/ -cache-max-mb 256  # LRU-bounded store
//	experiments -spec grid.json -progress       # per-cell progress on stderr
//	experiments -figure fig5 -out-jsonl r/      # stream cells as JSON lines
//	experiments -spec grid.json -out-jsonl r/ -resume  # finish an interrupted sweep
//	experiments -figure fig5 -cpuprofile cpu.out  # profile with runtime/pprof
//
// Tables print to stdout; -out additionally writes one CSV and one JSON
// results artifact per experiment (the JSON carries every cell's complete
// run result, so any metric can be re-rendered without re-running), and
// -out-jsonl streams one <id>.jsonl file per experiment — header line,
// one line per finished cell in deterministic aggregation order, footer
// with the cell count and outcome — written incrementally, so a sweep's
// results never have to fit in memory. -spec loads a sweep spec
// (repeatable) into the same registry as the built-in figures; with
// -figure left at "all", only the loaded specs run. Specs may declare
// multi-axis grid sweeps ("axes") and spec-level "seeds"/"scale"
// defaults; explicit -seeds/-scale flags override them. -metric renders
// the table under a different metric than the experiment declares.
// -progress renders a live single-line cell counter on stderr — done/total
// with elapsed time, an ETA extrapolated from the cells simulated so far,
// and recording-pass/failure counters; with -resume, reused cells show as
// already done and are excluded from the ETA estimate.
//
// Interrupting a run (SIGINT/SIGTERM) cancels it cooperatively: in-flight
// cells stop at their next event-loop checkpoint, every artifact the
// completed cells support is still flushed — partial CSV and JSON
// artifacts marked incomplete, JSONL streams footed with the
// interruption — the contact cache's mapped traces are released, and the
// exit code is non-zero.
//
// -resume (with -out-jsonl) picks an interrupted sweep back up from its
// JSONL stream: the stream is validated against the sweep, completed
// cells are kept without re-simulating, a torn trailing line from a hard
// kill is cut, and only the missing cells run — the finished file is
// byte-identical to an uninterrupted run's. A complete stream is left
// untouched (its cells still render the tables). A stream from a
// different sweep (spec, seeds, or scale) is refused rather than
// overwritten; a missing or header-less file simply starts fresh, so
// -resume is safe to pass unconditionally when re-running a sweep.
//
// -contact-cache records each distinct (scenario, seed) mobility process
// once and replays it for every series and x cell that shares it —
// results are bit-identical to uncached runs, several times faster on
// multi-cell sweeps. -cache-dir additionally persists the traces on disk
// in the integrity-checked binary format (and implies -contact-cache),
// laid out as a 2-level sharded directory, and replays them on later
// runs through read-only memory-mapped views — concurrent processes share
// one page-cached copy of each trace, and cells replay with no per-cell
// trace allocation. -cache-max-mb bounds the store, evicting the traces
// whose files were least recently used (by mtime). Each sweep records the
// distinct traces it needs on a concurrent pool running ahead of its cell
// workers, so cells rarely wait behind a recording pass. A failing cell
// exits non-zero naming its (series, x, seed) coordinates.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"vdtn"
	"vdtn/internal/experiments"
	"vdtn/internal/profiling"
)

// specFlags collects repeatable -spec arguments.
type specFlags []string

func (s *specFlags) String() string { return strings.Join(*s, ",") }

func (s *specFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// fail reports an error on stderr and returns the process exit code, so
// every exit flows through run's single return path — deferred cleanup
// (closing the contact cache, releasing its mapped traces) always executes.
func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	return 1
}

func main() { os.Exit(run()) }

func run() (code int) {
	var specs specFlags
	var (
		figure   = flag.String("figure", "all", `experiment id ("fig4".."fig9", "ablation-*", a loaded spec id, or "all")`)
		seeds    = flag.Int("seeds", 0, "number of replication seeds 1..n (0 = the spec's own seeds, else 1)")
		scale    = flag.Float64("scale", 0, "duration scale (0 = the spec's own scale, else 1 = the paper's 12 h)")
		work     = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		outDir   = flag.String("out", "", "directory for CSV + JSON results output (optional)")
		outJSONL = flag.String("out-jsonl", "", "directory for streaming JSONL results (one <id>.jsonl per experiment, written cell by cell)")
		metric   = flag.String("metric", "", "render tables under this metric instead of each experiment's default (see -list-metrics)")
		progFlag = flag.Bool("progress", false, "render a live single-line cell counter with elapsed/ETA on stderr")
		list     = flag.Bool("list", false, "list experiment ids (built-ins and loaded specs) and exit")
		listM    = flag.Bool("list-metrics", false, "list metric and axis names and exit")
		dump     = flag.String("dump-spec", "", "print the named experiment as a JSON sweep spec and exit")
		useCC    = flag.Bool("contact-cache", false, "record each (scenario, seed) mobility process once and replay it across cells")
		ccDir    = flag.String("cache-dir", "", "persist recorded contact traces in this directory (implies -contact-cache)")
		ccMax    = flag.Float64("cache-max-mb", 0, "bound the persisted cache directory to this many MB, evicting least-recently-used traces (0 = unbounded)")
		resume   = flag.Bool("resume", false, "resume interrupted sweeps from their -out-jsonl streams: completed cells are kept, only missing ones run, and the finished file is byte-identical to an uninterrupted run's")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	flag.Var(&specs, "spec", "load a sweep spec file (repeatable); with -figure all, only the loaded specs run")
	flag.Parse()

	// SIGINT/SIGTERM cancel the run cooperatively: cells stop at their
	// next event checkpoint, partial artifacts flush below, and the
	// deferred cache Close still releases the mapped traces.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stopProfiles, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return fail("%v", err)
	}
	defer func() {
		if err := stopProfiles(); err != nil && code == 0 {
			code = fail("%v", err)
		}
	}()

	registry := vdtn.NewExperimentRegistry()
	var loaded []vdtn.Experiment
	for _, path := range specs {
		data, err := os.ReadFile(path)
		if err != nil {
			return fail("%v", err)
		}
		exp, err := vdtn.LoadExperimentSpec(data)
		if err != nil {
			return fail("%s: %v", path, err)
		}
		if err := registry.Add(exp); err != nil {
			return fail("%s: %v", path, err)
		}
		loaded = append(loaded, exp)
	}

	if *list {
		for _, e := range registry.Experiments() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *listM {
		fmt.Println("metrics:")
		for _, m := range vdtn.ExperimentMetrics() {
			fmt.Printf("  %-18s %s\n", string(m), m)
		}
		fmt.Println("axes:")
		for _, a := range vdtn.SweepAxes() {
			kind := "mobility-invariant (cells share one contact trace)"
			if a.MovesContacts {
				kind = "moves contacts (one trace per swept value)"
			}
			fmt.Printf("  %-18s %-20s %s\n", a.Name, a.Label, kind)
		}
		return 0
	}
	if *dump != "" {
		e, ok := registry.ByID(*dump)
		if !ok {
			return fail("unknown experiment %q; try -list", *dump)
		}
		data, err := vdtn.ExperimentSpecJSON(e)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Println(string(data))
		return 0
	}

	var todo []vdtn.Experiment
	switch {
	case *figure != "all":
		e, ok := registry.ByID(*figure)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q; try -list\n", *figure)
			return 2
		}
		todo = []vdtn.Experiment{e}
	case len(loaded) > 0:
		// Specs were loaded and no explicit figure picked: run the specs,
		// not the whole catalog behind them.
		todo = loaded
	default:
		todo = registry.Experiments()
	}

	// A typoed -metric must fail here, in milliseconds — not after the
	// first multi-seed sweep has burned its wall clock.
	if *metric != "" {
		known := false
		for _, m := range vdtn.ExperimentMetrics() {
			known = known || string(m) == *metric
		}
		if !known {
			fmt.Fprintf(os.Stderr, "experiments: unknown metric %q; try -list-metrics\n", *metric)
			return 2
		}
	}

	// -seeds 0 leaves Seeds empty so a spec's own seed list (or the {1}
	// default) applies; an explicit flag overrides the spec.
	var seedList []uint64
	for i := 0; i < *seeds; i++ {
		seedList = append(seedList, uint64(i+1))
	}
	if *resume && *outJSONL == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume needs -out-jsonl (the JSONL stream is what a run resumes from)")
		return 2
	}

	opt := vdtn.ExperimentOptions{
		Seeds: seedList, Scale: *scale, Workers: *work,
	}
	if *useCC || *ccDir != "" {
		// One cache across all experiments: sweeps over the same scenario
		// replay the traces the first one recorded. The deferred Close is
		// the single cleanup path every exit below flows through — it
		// releases mapped views even when a sweep fails or is interrupted.
		opt.ContactCache = &vdtn.ContactCache{
			Dir:      *ccDir,
			MaxBytes: int64(*ccMax * 1e6),
			Warn:     func(msg string) { fmt.Fprintf(os.Stderr, "experiments: %s\n", msg) },
		}
		defer opt.ContactCache.Close()
	}

	for _, dir := range []string{*outDir, *outJSONL} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fail("%v", err)
			}
		}
	}

	interrupted := false
	for _, e := range todo {
		code, cancelled := runOne(ctx, e, opt, *progFlag, *metric, *outDir, *outJSONL, *resume)
		if code != 0 && !cancelled {
			return code
		}
		if cancelled {
			interrupted = true
			break
		}
	}
	if opt.ContactCache != nil {
		fmt.Printf("contact cache: %d traces held, %d recording passes run\n",
			opt.ContactCache.Len(), opt.ContactCache.Recorded())
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; partial artifacts flushed")
		return 130
	}
	return 0
}

// runOne executes one experiment through the Runner and renders whatever
// its results support. On cancellation it still renders the partial
// table and flushes partial artifacts (marked incomplete), reporting
// cancelled=true so the caller stops the remaining experiments and exits
// non-zero.
func runOne(ctx context.Context, e vdtn.Experiment, opt vdtn.ExperimentOptions, progFlag bool, metric, outDir, outJSONL string, resume bool) (code int, cancelled bool) {
	var mem vdtn.ExperimentMemorySink
	sinks := []vdtn.ExperimentSink{&mem}
	var resumeFrom *vdtn.ExperimentSweepPrefix
	if outJSONL != "" {
		path := filepath.Join(outJSONL, e.ID+".jsonl")
		var f *os.File
		var err error
		if resume {
			// A complete stream comes back with a nil file: its cells are
			// re-delivered to the tables through ResumeFrom, and its bytes
			// stay untouched.
			resumeFrom, f, err = experiments.OpenResume(path, e, opt)
			if err != nil {
				return fail("resuming %s: %v", path, err), false
			}
			if resumeFrom != nil {
				fmt.Fprintf(os.Stderr, "experiments: resuming %s: reusing %d completed cells\n",
					path, len(resumeFrom.Cells))
			}
		} else {
			f, err = os.Create(path)
			if err != nil {
				return fail("%v", err), false
			}
		}
		if f != nil {
			defer func() {
				if cerr := f.Close(); cerr != nil && code == 0 {
					code = fail("closing %s: %v", path, cerr)
				}
			}()
			sinks = append(sinks, vdtn.NewExperimentJSONLSinkResume(f, resumeFrom))
		}
	}

	// The live counter is created per sweep so a resumed run's ETA only
	// extrapolates from the cells this run actually simulates.
	var observer vdtn.ExperimentObserver
	if progFlag {
		resumed := 0
		if resumeFrom != nil {
			resumed = len(resumeFrom.Cells)
		}
		observer = &vdtn.ExperimentProgressObserver{Resumed: resumed}
	}

	start := time.Now()
	runner := vdtn.Runner{Options: opt, Observer: observer, Sink: vdtn.TeeExperimentSink(sinks...), ResumeFrom: resumeFrom}
	err := runner.Run(ctx, e)
	cancelled = errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if err != nil && !cancelled {
		return fail("%v", err), false
	}
	res := mem.Results()

	m := e.Metric
	if metric != "" {
		m = vdtn.ExperimentMetric(metric)
	}
	tbl, terr := res.Table(m)
	if terr != nil {
		return fail("%v", terr), cancelled
	}
	fmt.Println(tbl.Render())
	fmt.Printf("(%d/%d runs in %v)\n\n",
		len(res.Cells), len(e.Scenarios)*e.Combos()*len(e.Xs)*len(res.Options.Seeds),
		time.Since(start).Round(time.Millisecond))
	if outDir != "" {
		csvPath := filepath.Join(outDir, e.ID+".csv")
		if err := os.WriteFile(csvPath, []byte(tbl.CSV()), 0o644); err != nil {
			return fail("writing %s: %v", csvPath, err), cancelled
		}
		artifact, err := res.JSON()
		if err != nil {
			return fail("rendering %s results: %v", e.ID, err), cancelled
		}
		jsonPath := filepath.Join(outDir, e.ID+".json")
		if err := os.WriteFile(jsonPath, append(artifact, '\n'), 0o644); err != nil {
			return fail("writing %s: %v", jsonPath, err), cancelled
		}
		fmt.Printf("wrote %s and %s\n\n", csvPath, jsonPath)
	}
	return 0, cancelled
}
