// Streaming analysis (the paper's §8 deployment shape): results flow into
// the analyzer, and as each analysis bin closes the serving layer publishes
// an immutable snapshot — alarms, incrementally maintained per-AS
// magnitudes and events — with one atomic pointer swap, plus a delta to
// every subscriber. This is exactly the read model cmd/ihr serves over
// HTTP; here the deltas and the final snapshot are printed instead.
//
//	go run ./examples/streaming_ihr
package main

import (
	"context"
	"fmt"
	"log"

	"pinpoint"
	"pinpoint/internal/experiments"
	"pinpoint/internal/serve"
)

func main() {
	log.SetFlags(0)

	c, err := experiments.NewCase("ddos", experiments.Quick)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streaming case %q: %s\n\n", c.Name, c.Description)

	// AutoWorkers shards the detectors across every CPU; the alarms (and
	// their order) are identical to a sequential run.
	analyzer := pinpoint.New(pinpoint.Config{Workers: pinpoint.AutoWorkers},
		c.Platform.ProbeASN, c.Net.Prefixes())
	defer analyzer.Close()

	// The publisher hooks the analyzer's alarm and bin-close callbacks: no
	// further wiring, no locks. Subscribers receive one delta per closed
	// bin; HTTP handlers would read pub.Snapshot() instead.
	pub := serve.NewPublisher(analyzer, serve.Meta{
		Case: c.Name, Description: c.Description,
		Start: c.Start, End: c.End,
	})
	sub := pub.Subscribe()
	defer sub.Cancel()
	deltas := sub.C
	done := make(chan struct{})
	go func() {
		defer close(done)
		shown := 0
		for d := range deltas {
			if busy := len(d.DelayAlarms)+len(d.FwdAlarms)+len(d.Events) > 0; busy && shown < 10 {
				fmt.Printf("bin %s closed: +%d delay, +%d fwd, +%d events (snapshot seq %d)\n",
					d.Bin.Format("Jan 2 15:04"), len(d.DelayAlarms), len(d.FwdAlarms), len(d.Events), d.Seq)
				for _, e := range d.Events {
					fmt.Printf("  live event: %s %s mag=%.1f\n", e.ASN, e.Type, e.Magnitude)
				}
				shown++
			}
			// The terminal delta is usually empty (the last data bin was
			// already published at Flush) — check it on every delta, quiet
			// or not.
			if d.Done || d.Failed {
				return
			}
		}
	}()

	// The fused pipeline: generator chunks are ingested on this goroutine
	// as they are produced, and every bin close publishes.
	if err := analyzer.RunPlatform(context.Background(), c.Platform, c.Start, c.End); err != nil {
		pub.Finish(err)
		log.Fatal(err)
	}
	pub.Finish(nil)
	<-done

	snap := pub.Snapshot()
	fmt.Printf("\nstream complete: %d results, %d delay alarms, %d forwarding alarms (done=%v)\n",
		snap.Results, len(snap.DelayAlarms), len(snap.FwdAlarms), snap.Done)
	fmt.Printf("major events: %d\n", len(snap.Events))
	for _, e := range snap.Events {
		fmt.Printf("  %s %s %s mag=%.1f\n", e.Bin.Format("2006-01-02T15:04"), e.ASN, e.Type, e.Magnitude)
	}
}
