package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/delay"
	"pinpoint/internal/events"
	"pinpoint/internal/experiments"
	"pinpoint/internal/forwarding"
)

// TestAlarmsSurfaceAtTheirBinsClose pins the dispatch order internal/serve
// builds its per-bin record on: every alarm reaches its hook between the
// previous OnBinClose and its own bin's, so "everything dispatched since the
// last close" is exactly the closing bin's alarms, for every worker count
// and batch size, and nothing is left over after Flush. A batched dispatch
// that hands a hook an alarm of another bin must fail here, not mis-file the
// alarm into the wrong segment. The resumed runs add the warm-up replay's
// half: no alarm and no close below the cursor reaches a hook.
func TestAlarmsSurfaceAtTheirBinsClose(t *testing.T) {
	type run struct {
		name           string
		workers, batch int
		resumed        bool
	}
	runs := []run{{"ddos", 1, 0, true}, {"ddos", 4, 0, true}}
	for _, name := range []string{"ddos", "ixp", "leak"} {
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{0, 5000} {
				runs = append(runs, run{name, workers, batch, false})
			}
		}
	}
	for _, r := range runs {
		t.Run(fmt.Sprintf("%s_workers=%d_batch=%d_resumed=%v", r.name, r.workers, r.batch, r.resumed), func(t *testing.T) {
			c, err := experiments.NewCase(r.name, experiments.Quick)
			if err != nil {
				t.Fatal(err)
			}
			a := core.New(core.WithChunk(core.Config{Workers: r.workers}, r.batch), c.Platform.ProbeASN, c.Net.Prefixes())
			defer a.Close()
			var cursor time.Time
			if r.resumed {
				cursor = c.Start.Add(c.End.Sub(c.Start) / 2).Truncate(time.Hour)
				a.SetResumeCursor(cursor)
			}

			var pending []time.Time // bins of the alarms dispatched since the last close
			alarms, closes := 0, 0
			a.OnDelayAlarm = func(al delay.Alarm) { pending = append(pending, al.Bin) }
			a.OnForwardingAlarm = func(al forwarding.Alarm) { pending = append(pending, al.Bin) }
			a.OnBinClose = func(bin time.Time, _ []events.Event, _ *events.CloseDelta) {
				if bin.Before(cursor) {
					t.Errorf("OnBinClose(%v) fired below the resume cursor %v", bin, cursor)
				}
				for _, b := range pending {
					if !b.Equal(bin) {
						t.Errorf("alarm of bin %v was dispatched before OnBinClose(%v)", b, bin)
					}
				}
				alarms += len(pending)
				pending = pending[:0]
				closes++
			}
			if err := a.RunPlatform(context.Background(), c.Platform, c.Start, c.End); err != nil {
				t.Fatal(err)
			}
			if len(pending) != 0 {
				t.Errorf("%d alarms (bins %v) were dispatched after the last OnBinClose", len(pending), pending)
			}
			if alarms == 0 || closes == 0 {
				t.Fatalf("%d alarms over %d closes; test is vacuous", alarms, closes)
			}
		})
	}
}
