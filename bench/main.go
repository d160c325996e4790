// Command bench is the repository's benchmark: four workloads over the
// simulator's public entry points, end-to-end metrics with regression
// bounds, and a traced run that splits each op's time across the layers.
// See README.md in this directory for the workloads, the metrics and how
// to run it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricDef describes one metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression. BENCHMARK.json lists the same definitions.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"op_s_p50", "s", "lower", 0.25},
	{"op_s_p80", "s", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
	{"allocs_per_op", "count", "lower", 0.05},
	{"rss_peak_mb", "MB", "lower", 0.10},
}

var perLayer = []metricDef{
	{name: "routing.self_s", unit: "s", better: "lower"},
	{name: "routing.share", unit: "ratio", better: "lower"},
	{name: "routing.calls", unit: "count", better: "lower"},
	{name: "routing.refresh_calls", unit: "count", better: "lower"},
	{name: "routing.refresh_s", unit: "s", better: "lower"},
	{name: "routing.contactup_s", unit: "s", better: "lower"},
	{name: "routing.nextsend_s", unit: "s", better: "lower"},
	{name: "routing.receive_s", unit: "s", better: "lower"},
	{name: "routing.addmessage_s", unit: "s", better: "lower"},
	{name: "core.order_calls", unit: "count", better: "lower"},
	{name: "core.order_msgs", unit: "count", better: "lower"},
	{name: "core.order_s", unit: "s", better: "lower"},
	{name: "core.victim_calls", unit: "count", better: "lower"},
	{name: "core.victim_s", unit: "s", better: "lower"},
	{name: "buffer.len_at_refresh_mean", unit: "count", better: "lower"},
	{name: "buffer.used_frac_at_refresh_mean", unit: "ratio", better: "lower"},
	{name: "wireless.contacts", unit: "count", better: "higher"},
	{name: "wireless.transfers_started", unit: "count", better: "higher"},
	{name: "wireless.transfer_complete_ratio", unit: "ratio", better: "higher"},
	{name: "wireless.transitions", unit: "count", better: "higher"},
	{name: "sim.record_contacts_s", unit: "s", better: "lower"},
	{name: "sim.new_s", unit: "s", better: "lower"},
	{name: "sim.other_s", unit: "s", better: "lower"},
	{name: "trace.events", unit: "count", better: "lower"},
	{name: "trace.emit_s", unit: "s", better: "lower"},
	{name: "experiments.record_passes", unit: "count", better: "lower"},
	{name: "experiments.record_s", unit: "s", better: "lower"},
	{name: "experiments.disk_loads", unit: "count", better: "lower"},
	{name: "experiments.disk_load_s", unit: "s", better: "lower"},
	{name: "experiments.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "experiments.cell_s_mean", unit: "s", better: "lower"},
	{name: "experiments.cell_s_p80", unit: "s", better: "lower"},
	{name: "experiments.worker_busy_frac", unit: "ratio", better: "higher"},
	{name: "experiments.sink_s", unit: "s", better: "lower"},
	{name: "experiments.sink_bytes", unit: "B", better: "lower"},
	{name: "runtime.gc_cycles_per_op", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
}

// failedFrac is printed with the end-to-end metrics but kept out of the
// JSON result, whose failed and attempted fields carry the same count.
var failedFrac = metricDef{name: "failed_frac", unit: "ratio", better: "lower"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostInfo is the provenance block printed with every result.
type hostInfo struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Size       string `json:"size"`
	Traced     bool   `json:"traced"`
	Seed       uint64 `json:"seed"`
	SimSeeds   string `json:"sim_seeds"`
	Passes     int    `json:"passes"`
	Ops        int    `json:"ops"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in its own child process)")
	seed := fs.Uint64("seed", 1, "workload seed: op i of every pass uses sim seed S+i")
	seconds := fs.Float64("seconds", 20, "run as many whole passes over a workload's inputs as fit in this many seconds, and at least one")
	traced := fs.Int("trace", 0, "1 runs the traced run: per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write the spans to `FILE` as JSON lines")
	pin := fs.Bool("pin", false, "rewrite testdata/digests.json with this run's digests")
	repeat := fs.Int("repeat", 1, "run `N` full sets and report every end-to-end metric's spread against its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*traced != 0 && *traced != 1) || *seconds <= 0 || *repeat < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1, -seconds and -repeat must be positive, and no arguments are taken")
		return 2
	}
	if (*pin && *seed != 1) || (*repeat > 1 && *name != "") {
		fmt.Fprintln(stderr, "bench: -pin pins the -seed 1 digests, and -repeat runs every workload")
		return 2
	}
	if *name == "" {
		return runAll(stdout, stderr, args, *repeat, *spans)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "vdtn-bench-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	p := &plan{seed: *seed, seconds: *seconds, traced: *traced == 1, size: fullSizes, dir: dir,
		pins: pins[fullSizes.name][w.name]}
	out, err := runWorkload(w, p)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, f)
	}
	if *spans != "" && p.traced {
		if err := appendSpans(*spans, out.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *pin {
		if err := writePins(filepath.Join("bench", "testdata", "digests.json"), p.size.name, w.name, out.digests); err != nil {
			fmt.Fprintln(stderr, "bench: -pin:", err)
			return 1
		}
	}
	if err := report(stdout, w.name, p, out); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if out.failed > 0 {
		return 1
	}
	return 0
}

// report prints one "workload metric value unit" line per metric, the
// host block, and the JSON result as the last line.
func report(stdout io.Writer, workload string, p *plan, out *outcome) error {
	defs, values := endToEnd, out.endToEnd
	if p.traced {
		defs, values = perLayer, out.layers
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := finite(values[d.name])
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%s %s %s %s\n", workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	if !p.traced {
		fmt.Fprintf(stdout, "%s %s %s %s\n", workload, failedFrac.name,
			strconv.FormatFloat(float64(out.failed)/float64(out.attempted), 'g', -1, 64), failedFrac.unit)
	}
	h := hostInfo{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(),
		Workload: workload, Size: p.size.name, Traced: p.traced, Seed: p.seed,
		SimSeeds: fmt.Sprintf("%d..%d", p.seed, p.seed+uint64(out.inputs)-1), Passes: out.passes, Ops: out.attempted,
	}
	hb, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", hb)
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", rb)
	return err
}

// finite maps a metric without samples (NaN) to 0, which JSON can carry;
// such a run has failed ops and reports correct=false anyway.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// commit names the checked-out commit, or "unknown" outside a git
// checkout. It reads only the .git of the current directory, the
// repository root, so that git never searches the directories above it.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "--git-dir", ".git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload in its own child process, one at a time,
// repeat times over, and exits non-zero if any of them failed.
func runAll(stdout, stderr io.Writer, args []string, repeat int, spans string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if spans != "" {
		if err := os.WriteFile(spans, nil, 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	code := 0
	// sets[i][workload] is set i's result for each workload.
	sets := make([]map[string]result, repeat)
	for i := range sets {
		sets[i] = map[string]result{}
		for _, w := range workloads {
			res, err := runChild(exe, w.name, args, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				code = 1
				continue
			}
			sets[i][w.name] = res
		}
	}
	if repeat > 1 {
		printSpread(stdout, sets)
	}
	return code
}

// runChild runs one workload in a child process, passing its lines
// through, and returns its JSON result.
func runChild(exe, name string, args []string, stdout, stderr io.Writer) (result, error) {
	cmd := exec.Command(exe, append(dropRepeat(args), "-workload", name)...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var lines []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	var res result
	if len(lines) == 0 || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil {
		return res, fmt.Errorf("no result (%v)", runErr)
	}
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
	}
	if runErr != nil || !res.Correct {
		return res, fmt.Errorf("%d of %d ops failed (%v)", res.Failed, res.Attempted, runErr)
	}
	return res, nil
}

// dropRepeat removes "-repeat N" and "-repeat=N" from a child's arguments.
func dropRepeat(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == "repeat" {
			i++
			continue
		}
		if strings.HasPrefix(a, "repeat=") {
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// printSpread prints, for each workload and end-to-end metric, every set's
// value, their median and quartiles, the quartile distance and the range
// as shares of the median, and each share over the metric's bound.
func printSpread(stdout io.Writer, sets []map[string]result) {
	for _, w := range workloads {
		for _, d := range endToEnd {
			var vals []float64
			for _, s := range sets {
				if r, ok := s[w.name]; ok {
					vals = append(vals, r.Metrics[d.name].Value)
				}
			}
			if len(vals) < 2 {
				continue
			}
			med := median(vals)
			q1, q3 := quartiles(vals)
			iqr := (q3 - q1) / med
			rng := (percentile(vals, 100) - percentile(vals, 0)) / med
			strs := make([]string, len(vals))
			for i, v := range vals {
				strs[i] = strconv.FormatFloat(v, 'g', 6, 64)
			}
			fmt.Fprintf(stdout, "spread %s %s sets=[%s] median=%.6g q1=%.6g q3=%.6g iqr=%.4f range=%.4f bound=%.2f iqr/bound=%.2f range/bound=%.2f\n",
				w.name, d.name, strings.Join(strs, " "), med, q1, q3, iqr, rng, d.bound, iqr/d.bound, rng/d.bound)
		}
	}
}

// span is one line of the -spans file. Parent is 0 for a top-level span;
// an aggregated child stands for count calls whose durations sum to dur_s.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Start    float64 `json:"start_s"`
	Dur      float64 `json:"dur_s"`
	Count    int64   `json:"count"`
}

func appendSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// outcome is a workload run's measurements before reporting.
type outcome struct {
	attempted, failed int
	failures          []string
	// inputs is the pass length; passes counts the passes made.
	inputs, passes   int
	endToEnd, layers map[string]float64
	digests          map[string]string
	spans            []span
}

// runWorkload sets w up in batches (see sizes), then runs whole passes
// over its inputs, checking every output. Each pass runs the same inputs
// in the same order, so every run measures the same mix however fast the
// code is; another pass starts only if, judging by the last one, it ends
// within p.seconds. A traced run makes one pass, each op followed by its
// traced twin on the same input.
func runWorkload(w workload, p *plan) (*outcome, error) {
	epoch := time.Now()
	n := p.passOps(w)
	out := &outcome{inputs: n, digests: map[string]string{}}
	addSpan := func(parent int, name string, start time.Time, dur time.Duration, count int64) int {
		id := len(out.spans) + 1
		out.spans = append(out.spans, span{ID: id, Parent: parent, Workload: w.name, Name: name,
			Start: start.Sub(epoch).Seconds(), Dur: dur.Seconds(), Count: count})
		return id
	}

	var op opFunc
	var setup []float64
	setupStart := time.Now()
	rounds := 0
	for len(setup) < p.size.setupBatches {
		start := time.Now()
		k := 0
		for k == 0 || time.Since(start).Seconds() < p.size.setupBatchSeconds {
			var err error
			if op, err = w.prepare(p, n); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			k++
		}
		setup = append(setup, time.Since(start).Seconds()/float64(k))
		rounds += k
	}
	addSpan(0, "setup", setupStart, time.Since(setupStart), int64(rounds))

	var secs, tracedSecs, rss []float64
	var allocB, mallocs uint64
	var sts []*layerStats
	runOp := func(i int) error {
		key := seedKey(p.seed + uint64(i))
		// The traced run reports no RSS; the reset's forced collection
		// would only add to its GC counts.
		if !p.traced {
			resetPeakRSS()
		}
		opStart := time.Now()
		r, err := op(i, nil)
		if err != nil {
			return err
		}
		peak := rssPeakMB()
		id := addSpan(0, "op", opStart, time.Since(opStart), 1)
		if want, ok := p.pins[key]; ok && want != r.digest {
			return fmt.Errorf("digest mismatch: got %s, pinned %s", r.digest, want)
		}
		if want, ok := out.digests[key]; ok && want != r.digest {
			return fmt.Errorf("digest mismatch: got %s, an earlier pass %s", r.digest, want)
		}
		if p.traced {
			st := &layerStats{}
			tStart := time.Now()
			tr, err := op(i, st)
			if err != nil {
				return err
			}
			if tr.digest != r.digest {
				return fmt.Errorf("digest mismatch: traced op gave %s, untraced %s", tr.digest, r.digest)
			}
			st.aggregate(tStart)
			tid := addSpan(id, "op.traced", tStart, time.Since(tStart), 1)
			for _, c := range st.spans {
				addSpan(tid, c.name, c.start, c.dur, c.count)
			}
			sts = append(sts, st)
			tracedSecs = append(tracedSecs, st.wall)
		}
		secs = append(secs, r.secs)
		rss = append(rss, peak)
		allocB += r.allocB
		mallocs += r.mallocs
		out.digests[key] = r.digest
		return nil
	}
	rt0 := readRuntime()
	start := time.Now()
	for {
		passStart := time.Now()
		for i := 0; i < n; i++ {
			out.attempted++
			if err := runOp(i); err != nil {
				out.failed++
				out.failures = append(out.failures, fmt.Sprintf("pass %d op %d (sim seed %d): %v", out.passes, i, p.seed+uint64(i), err))
			}
		}
		out.passes++
		elapsed, last := time.Since(start), time.Since(passStart)
		if p.traced || (elapsed+last).Seconds() > p.seconds {
			break
		}
	}
	rt1 := readRuntime()

	ops := float64(len(secs))
	total := 0.0
	for _, s := range secs {
		total += s
	}
	out.endToEnd = map[string]float64{
		"setup_s":         median(setup),
		"ops_per_s":       ops / total,
		"op_s_p50":        percentile(secs, 50),
		"op_s_p80":        percentile(secs, 80),
		"alloc_mb_per_op": float64(allocB) / 1e6 / ops,
		"allocs_per_op":   float64(mallocs) / ops,
		"rss_peak_mb":     median(rss),
	}
	if p.traced && len(sts) > 0 {
		out.layers = layerMetrics(sts, secs, tracedSecs, rt0, rt1, len(secs)+len(tracedSecs))
	}
	return out, nil
}

// resetPeakRSS returns the heap's free pages to the OS and restarts the
// kernel's count of the peak resident set size, so that the next reading
// is one op's peak from a common floor rather than the largest op's so
// far. Where the reset is refused, the reading stays the process's peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssPeakMB reads the process's peak resident set size (VmHWM), or NaN
// where /proc is unavailable.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return math.NaN()
}
