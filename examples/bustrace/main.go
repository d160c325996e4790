// Bustrace: replay a recorded connectivity trace through the routers.
//
// The paper's introduction distinguishes vehicles that "move along the
// roads randomly (e.g. cars), or following predefined routes (e.g.
// buses)". Bus fleets produce *predictable* contact schedules — exactly
// what contact-plan mode consumes. This example scripts a small two-line
// bus network with a shared interchange stop, injects commuter messages,
// and shows how a message crosses lines by being carried to the
// interchange — then prints the delivery-path analysis from the trace.
//
//	go run ./examples/bustrace
package main

import (
	"fmt"
	"log"

	"vdtn"
	"vdtn/internal/units"
)

func main() {
	// Nodes: 0,1 are buses on line A; 2,3 are buses on line B;
	// 4 is the stationary interchange kiosk (a relay in paper terms).
	// Each bus meets the kiosk on a 10-minute headway; the two lines
	// never meet directly.
	const kiosk = 4
	var windows []vdtn.Contact
	for trip := 0; trip < 6; trip++ {
		base := float64(trip) * 600
		windows = append(windows,
			vdtn.Contact{A: 0, B: kiosk, Start: base + 60, End: base + 90},
			vdtn.Contact{A: 1, B: kiosk, Start: base + 360, End: base + 390},
			vdtn.Contact{A: 2, B: kiosk, Start: base + 180, End: base + 210},
			vdtn.Contact{A: 3, B: kiosk, Start: base + 480, End: base + 510},
		)
	}
	plan, err := vdtn.NewContactPlan(windows)
	if err != nil {
		log.Fatal(err)
	}

	cfg := vdtn.DefaultConfig()
	cfg.Plan = plan
	cfg.Vehicles = 5
	cfg.Relays = 0
	cfg.Duration = units.Hours(1)
	cfg.TTL = units.Minutes(50)
	cfg.Protocol = vdtn.ProtoEpidemic
	cfg.Policy = vdtn.PolicyLifetime
	// Commuter messages crossing between the lines.
	cfg.Script = []vdtn.ScriptedMessage{
		{Time: 0, From: 0, To: 2, Size: units.KB(800)},   // line A -> line B
		{Time: 120, From: 3, To: 1, Size: units.MB(1.2)}, // line B -> line A
		{Time: 300, From: 1, To: 3, Size: units.KB(600)},
	}

	tracker := vdtn.NewTraceTracker()
	cfg.Trace = tracker.Emit

	result, err := vdtn.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("bus network: 4 buses on 2 lines + interchange kiosk, %d scheduled contacts\n\n",
		plan.Len())
	fmt.Println(result.Report)

	analysis := tracker.Analysis(cfg.Duration)
	fmt.Printf("\n--- trace analysis ---\n%s\n", analysis)
	fmt.Println("delivery paths (messages hop lines via the kiosk, node 4):")
	for id := vdtn.MessageID(1); id <= 3; id++ {
		if path := analysis.DeliveryPath(id); path != nil {
			fmt.Printf("  %v: %v\n", id, path)
		} else {
			fmt.Printf("  %v: not delivered\n", id)
		}
	}
}
