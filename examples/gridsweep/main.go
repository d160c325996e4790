// Gridsweep: a multi-axis grid sweep through the context-aware Runner,
// with progress observation, cancellation, and a streaming JSONL sink.
//
// The sweep is the checked-in 2-axis grid spec (message TTL × Spray and
// Wait copy budget): cells are the cross-product of both axes' values
// times the spec's own seeds. The Runner streams every finished cell —
// in deterministic aggregation order — to a JSONL file while a memory
// sink keeps the same cells for table rendering, an observer prints
// per-cell progress, and Ctrl-C cancels the sweep cooperatively: cells
// stop at their next event-loop checkpoint, and both sinks keep the
// complete cells delivered before the cut (the JSONL stream ends in a
// footer recording the interruption).
//
//	go run ./examples/gridsweep
//	go run ./examples/gridsweep my-grid.json out.jsonl
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"vdtn"
)

// progress prints each finished cell with its grid coordinates.
type progress struct {
	vdtn.ExperimentBaseObserver
}

func (progress) CellFinished(c vdtn.ExperimentCellID, elapsed time.Duration, err error) {
	if err != nil {
		fmt.Printf("  [%d/%d] failed: %v\n", c.Index+1, c.Total, err)
		return
	}
	fmt.Printf("  [%d/%d] %s x=%g", c.Index+1, c.Total, c.Series, c.X)
	for _, g := range c.Grid {
		fmt.Printf(" %s=%g", g.Axis, g.Value)
	}
	fmt.Printf(" seed=%d (%v)\n", c.Seed, elapsed.Round(time.Millisecond))
}

func main() {
	specPath, outPath := "examples/sweeps/grid.json", "gridsweep.jsonl"
	if len(os.Args) > 1 {
		specPath = os.Args[1]
	}
	if len(os.Args) > 2 {
		outPath = os.Args[2]
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		log.Fatal(err)
	}
	exp, err := vdtn.LoadExperimentSpec(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %q: %d series × %d×%d grid cells × %d seeds\n",
		exp.ID, len(exp.Scenarios), len(exp.Xs), exp.Combos(), max(len(exp.Seeds), 1))

	out, err := os.Create(outPath)
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()

	// Ctrl-C cancels the sweep; the sinks keep the delivered prefix.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var mem vdtn.ExperimentMemorySink
	r := vdtn.Runner{
		Observer: progress{},
		Sink:     vdtn.TeeExperimentSink(&mem, vdtn.NewExperimentJSONLSink(out)),
	}
	err = r.Run(ctx, exp)
	res := mem.Results()
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Printf("interrupted: %d complete cells kept, JSONL footer records the cut\n", len(res.Cells))
	case err != nil:
		log.Fatal(err)
	}

	// The grid table renders one sub-series per (series, combination);
	// after an interruption it renders whatever groups completed.
	fmt.Println()
	fmt.Println(res.DefaultTable().Render())
	fmt.Printf("streamed %d cells to %s\n", len(res.Cells), outPath)
}
