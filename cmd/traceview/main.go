// Command traceview analyzes a recorded simulation trace offline:
// contact statistics, transfer outcomes, message fates, delivery paths.
//
// Usage:
//
//	vdtnsim -ttl 120 -trace run.tsv        # record
//	traceview run.tsv                      # analyze later
//	traceview -horizon 43200 -paths run.tsv
package main

import (
	"flag"
	"fmt"
	"os"

	"vdtn/internal/reports"
	"vdtn/internal/trace"
)

func main() {
	var (
		horizon = flag.Float64("horizon", 0, "run end time in seconds (0 = last event time)")
		paths   = flag.Bool("paths", false, "print the delivery path of every delivered message")
		topK    = flag.Int("top", 5, "how many busiest contact pairs to list")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceview [flags] <trace.tsv>")
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		os.Exit(1)
	}
	tracker := reports.NewTracker()
	var n int
	var last float64
	err = trace.ReadTSV(f, func(ev trace.Event) {
		n, last = n+1, ev.Time
		tracker.Emit(ev)
	})
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		os.Exit(1)
	}
	if n == 0 {
		fmt.Fprintln(os.Stderr, "traceview: trace is empty")
		os.Exit(1)
	}
	end := *horizon
	if end == 0 {
		end = last
	}

	a := tracker.Analysis(end)
	fmt.Printf("%d events over %.0f s\n\n%s", n, end, a)

	if *topK > 0 {
		fmt.Printf("\nbusiest contact pairs:\n")
		for _, p := range a.TopPairs(*topK) {
			fmt.Printf("  %d <-> %d\n", p[0], p[1])
		}
	}

	if *paths {
		fmt.Printf("\ndelivery paths:\n")
		for _, id := range a.DeliveredIDs() {
			fmt.Printf("  %v: %v\n", id, a.DeliveryPath(id))
		}
	}
}
