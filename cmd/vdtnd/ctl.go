package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"vdtn/internal/service"
)

// runCtl is the client mode: vdtnctl <subcommand> [flags] [args].
func runCtl(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, ctlUsage)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "submit":
		return ctlSubmit(rest)
	case "list":
		return ctlList(rest)
	case "status":
		return ctlJSON(rest, "status", func(addr, id string) (*http.Response, error) {
			return http.Get(apiURL(addr, "/v1/jobs/"+id))
		})
	case "cancel":
		return ctlJSON(rest, "cancel", func(addr, id string) (*http.Response, error) {
			req, err := http.NewRequest(http.MethodDelete, apiURL(addr, "/v1/jobs/"+id), nil)
			if err != nil {
				return nil, err
			}
			return http.DefaultClient.Do(req)
		})
	case "events":
		return ctlEvents(rest)
	case "results":
		return ctlResults(rest)
	case "wait":
		return ctlWait(rest)
	case "-h", "--help", "help":
		fmt.Println(ctlUsage)
		return 0
	default:
		fmt.Fprintf(os.Stderr, "vdtnctl: unknown command %q\n%s\n", cmd, ctlUsage)
		return 2
	}
}

const ctlUsage = `usage: vdtnctl <command> [-addr host:port] [args]

commands:
  submit -spec file [-seeds n] [-scale f] [-metric m] [-workers n]
         [-cache-dir dir]
                       submit a sweep job; prints its meta
  list                 list all jobs
  status <job>         one job's state and progress
  events <job>         stream the job's live events (NDJSON)
  results <job>        print the job's results.jsonl to stdout
  wait <job>           poll until the job is terminal; exit 0 only for "done"
  cancel <job>         cancel a queued or running job`

// addrFlag registers the shared -addr flag.
func addrFlag(fs *flag.FlagSet) *string {
	return fs.String("addr", "127.0.0.1:8480", "vdtnd address (host:port)")
}

func apiURL(addr, path string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr + path
}

// fail prints an error and returns the exit code.
func ctlFail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "vdtnctl: "+format+"\n", args...)
	return 1
}

// decodeError surfaces the server's {"error": ...} body.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s", resp.Status)
}

// printBody pretty-prints a JSON response body.
func printBody(resp *http.Response) int {
	defer resp.Body.Close()
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		return ctlFail("%v", err)
	}
	return 0
}

func ctlSubmit(args []string) int {
	fs := flag.NewFlagSet("vdtnctl submit", flag.ExitOnError)
	addr := addrFlag(fs)
	var (
		specPath = fs.String("spec", "", "sweep spec file (required)")
		seeds    = fs.Int("seeds", 0, "replication seeds 1..n (0 = the spec's own)")
		scale    = fs.Float64("scale", 0, "duration scale (0 = the spec's own)")
		metric   = fs.String("metric", "", "metric override")
		workers  = fs.Int("workers", 0, "sweep workers (0 = GOMAXPROCS)")
		cacheDir = fs.String("cache-dir", "", "persist contact traces in this directory")
	)
	fs.Parse(args)
	if *specPath == "" {
		return ctlFail("submit needs -spec")
	}
	spec, err := os.ReadFile(*specPath)
	if err != nil {
		return ctlFail("%v", err)
	}
	opts := service.Options{
		Scale: *scale, Workers: *workers, Metric: *metric, CacheDir: *cacheDir,
	}
	for i := 0; i < *seeds; i++ {
		opts.Seeds = append(opts.Seeds, uint64(i+1))
	}
	body, err := json.Marshal(struct {
		Spec    json.RawMessage `json:"spec"`
		Options service.Options `json:"options"`
	}{Spec: spec, Options: opts})
	if err != nil {
		return ctlFail("%v", err)
	}
	resp, err := http.Post(apiURL(*addr, "/v1/jobs"), "application/json", strings.NewReader(string(body)))
	if err != nil {
		return ctlFail("%v", err)
	}
	if resp.StatusCode != http.StatusCreated {
		return ctlFail("%v", decodeError(resp))
	}
	return printBody(resp)
}

func ctlList(args []string) int {
	fs := flag.NewFlagSet("vdtnctl list", flag.ExitOnError)
	addr := addrFlag(fs)
	fs.Parse(args)
	resp, err := http.Get(apiURL(*addr, "/v1/jobs"))
	if err != nil {
		return ctlFail("%v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return ctlFail("%v", decodeError(resp))
	}
	defer resp.Body.Close()
	var body struct {
		Jobs []service.Meta `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return ctlFail("%v", err)
	}
	for _, j := range body.Jobs {
		fmt.Printf("%-10s %-10s %-16s %d/%d cells\n", j.ID, j.State, j.Experiment, j.Done, j.Cells)
	}
	return 0
}

// ctlJSON runs a one-job request (status, cancel) and prints the body.
func ctlJSON(args []string, name string, do func(addr, id string) (*http.Response, error)) int {
	fs := flag.NewFlagSet("vdtnctl "+name, flag.ExitOnError)
	addr := addrFlag(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return ctlFail("%s needs exactly one job ID", name)
	}
	resp, err := do(*addr, fs.Arg(0))
	if err != nil {
		return ctlFail("%v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return ctlFail("%v", decodeError(resp))
	}
	return printBody(resp)
}

func ctlEvents(args []string) int {
	fs := flag.NewFlagSet("vdtnctl events", flag.ExitOnError)
	addr := addrFlag(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return ctlFail("events needs exactly one job ID")
	}
	resp, err := http.Get(apiURL(*addr, "/v1/jobs/"+fs.Arg(0)+"/events"))
	if err != nil {
		return ctlFail("%v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return ctlFail("%v", decodeError(resp))
	}
	defer resp.Body.Close()
	// Line-buffered copy so each event prints as it arrives.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		fmt.Println(sc.Text())
	}
	if err := sc.Err(); err != nil {
		return ctlFail("%v", err)
	}
	return 0
}

func ctlResults(args []string) int {
	fs := flag.NewFlagSet("vdtnctl results", flag.ExitOnError)
	addr := addrFlag(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return ctlFail("results needs exactly one job ID")
	}
	resp, err := http.Get(apiURL(*addr, "/v1/jobs/"+fs.Arg(0)+"/results"))
	if err != nil {
		return ctlFail("%v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return ctlFail("%v", decodeError(resp))
	}
	return printBody(resp)
}

func ctlWait(args []string) int {
	fs := flag.NewFlagSet("vdtnctl wait", flag.ExitOnError)
	addr := addrFlag(fs)
	interval := fs.Duration("interval", 500*time.Millisecond, "poll interval")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return ctlFail("wait needs exactly one job ID")
	}
	id := fs.Arg(0)
	for {
		resp, err := http.Get(apiURL(*addr, "/v1/jobs/"+id))
		if err != nil {
			return ctlFail("%v", err)
		}
		if resp.StatusCode != http.StatusOK {
			return ctlFail("%v", decodeError(resp))
		}
		var meta service.Meta
		err = json.NewDecoder(resp.Body).Decode(&meta)
		resp.Body.Close()
		if err != nil {
			return ctlFail("%v", err)
		}
		if meta.State.Terminal() {
			fmt.Printf("%s %s %d/%d cells\n", meta.ID, meta.State, meta.Done, meta.Cells)
			if meta.State != service.StateDone {
				return 1
			}
			return 0
		}
		time.Sleep(*interval)
	}
}
