// Sweepspec: run an experiment defined entirely as data.
//
// The harness's sweep engine treats experiments as files: a scenario JSON
// with "sweep" and "series" blocks describes the base scenario, the swept
// axis, its values and the compared series (see docs/SWEEPS.md). This
// example loads such a spec, runs it through the error-returning
// RunExperimentE path, renders the declared
// metric's table, and then — because every cell keeps its complete run
// result — renders a second metric from the same finished sweep without
// re-running anything.
//
//	go run ./examples/sweepspec examples/sweeps/fleet.json
package main

import (
	"fmt"
	"log"
	"os"

	"vdtn"
)

func main() {
	path := "examples/sweeps/fleet.json"
	if len(os.Args) > 1 {
		path = os.Args[1]
	}
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	exp, err := vdtn.LoadExperimentSpec(data)
	if err != nil {
		log.Fatal(err)
	}

	axis, _ := vdtn.SweepAxisByName(exp.Axis)
	fmt.Printf("loaded %q: %d series × %d values on axis %s\n", exp.ID, len(exp.Scenarios), len(exp.Xs), exp.Axis)
	if axis.MovesContacts {
		fmt.Println("axis moves the contact process: the sweep records one trace per swept value")
	} else {
		fmt.Println("axis is mobility-invariant: every cell replays one contact trace per seed")
	}
	fmt.Println()

	res, err := vdtn.RunExperimentE(exp, vdtn.ExperimentOptions{})
	if err != nil {
		log.Fatal(err) // a failing cell arrives with its (series, x, seed) coordinates
	}

	fmt.Println(res.DefaultTable().Render())

	// A different metric, same sweep: no cell re-runs.
	over, err := res.Table(vdtn.MetricOverhead)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(over.Render())
}
