package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"pinpoint/internal/core"
	"pinpoint/internal/events"
	"pinpoint/internal/experiments"
	"pinpoint/internal/timeseries"
	"pinpoint/internal/trace"
)

// The legacy wire structs and encoder of the pre-snapshot cmd/ihr server,
// reproduced verbatim: the acceptance bar is that a completed run's alarm
// and event payloads are byte-identical to what that server emitted.
type legacyDelayAlarmJSON struct {
	Bin       time.Time `json:"bin"`
	Link      string    `json:"link"`
	MedianMS  float64   `json:"median_ms"`
	RefMS     float64   `json:"reference_ms"`
	ShiftMS   float64   `json:"shift_ms"`
	Deviation float64   `json:"deviation"`
	Probes    int       `json:"probes"`
	ASes      int       `json:"ases"`
}

type legacyFwdAlarmJSON struct {
	Bin    time.Time `json:"bin"`
	Router string    `json:"router"`
	Dst    string    `json:"dst"`
	Rho    float64   `json:"rho"`
	TopHop string    `json:"top_hop"`
	TopR   float64   `json:"top_responsibility"`
}

type legacyEventJSON struct {
	ASN       string    `json:"asn"`
	Bin       time.Time `json:"bin"`
	Type      string    `json:"type"`
	Magnitude float64   `json:"magnitude"`
}

func legacyEncode(t *testing.T, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompletedRunPayloadsMatchLegacyServer runs the golden ddos and ixp
// quick cases to completion through the snapshot pipeline and checks the
// alarm/event payloads byte for byte against the legacy server's encoding
// of the same analysis — the legacy alarm conversion applied to the
// retained alarm record, and the legacy O(ASes × bins) event recomputation
// on a fresh aggregator.
func TestCompletedRunPayloadsMatchLegacyServer(t *testing.T) {
	for _, name := range []string{"ddos", "ixp"} {
		t.Run(name, func(t *testing.T) {
			c, err := experiments.NewCase(name, experiments.Quick)
			if err != nil {
				t.Fatal(err)
			}
			a := core.New(core.Config{RetainAlarms: true}, c.Platform.ProbeASN, c.Net.Prefixes())
			defer a.Close()
			pub := NewPublisher(a, Meta{
				Case: c.Name, Description: c.Description,
				Start: c.Start, End: c.End,
			})
			srv := NewServer(pub, Options{Logf: func(string, ...any) {}})

			var firstT time.Time
			haveFirst := false
			err = c.Platform.RunChunks(context.Background(), c.Start, c.End, 0, func(rs []trace.Result) error {
				if !haveFirst && len(rs) > 0 {
					firstT, haveFirst = rs[0].Time, true
				}
				a.ObserveBatch(rs)
				pub.ObserveResults(len(rs))
				return nil
			})
			a.Flush()
			pub.Finish(err)
			if err != nil {
				t.Fatal(err)
			}

			// Legacy alarm payloads from the retained record (the exact
			// conversions the old hooks applied, in the same order).
			legacyDelay := []legacyDelayAlarmJSON{}
			for _, al := range a.DelayAlarms() {
				legacyDelay = append(legacyDelay, legacyDelayAlarmJSON{
					Bin: al.Bin, Link: al.Link.String(),
					MedianMS: al.Observed.Median, RefMS: al.Reference.Median,
					ShiftMS: al.DiffMS, Deviation: al.Deviation,
					Probes: al.Probes, ASes: al.ASes,
				})
			}
			legacyFwd := []legacyFwdAlarmJSON{}
			for _, al := range a.ForwardingAlarms() {
				top, _ := al.MaxResponsibility()
				legacyFwd = append(legacyFwd, legacyFwdAlarmJSON{
					Bin: al.Bin, Router: al.Router.String(), Dst: al.Dst.String(),
					Rho: al.Rho, TopHop: top.Hop.String(), TopR: top.Responsibility,
				})
			}

			// Legacy events: the old server asked a live aggregator for the
			// full [start, end) evaluation. Rebuild one from the retained
			// alarms and close it over [start, end) in one call, so none of
			// the analyzer's per-bin closes is involved.
			ref := events.NewAggregator(events.Config{}, c.Net.Prefixes())
			if haveFirst {
				ref.ObserveBin(firstT)
			}
			for _, al := range a.DelayAlarms() {
				ref.AddDelayAlarm(al)
			}
			for _, al := range a.ForwardingAlarms() {
				ref.AddForwardingAlarm(al)
			}
			ref.CloseBins(c.End, nil)
			legacyEvents := []legacyEventJSON{}
			for _, e := range ref.Events(c.Start, c.End) {
				legacyEvents = append(legacyEvents, legacyEventJSON{
					ASN: e.ASN.String(), Bin: e.Bin, Type: e.Type.String(), Magnitude: e.Magnitude,
				})
			}

			if len(legacyDelay)+len(legacyFwd) == 0 {
				t.Fatal("case produced no alarms; comparison is vacuous")
			}

			compare := func(url string, legacy []byte) {
				t.Helper()
				rec := get(t, srv, url)
				if rec.Code != 200 {
					t.Fatalf("%s: status %d", url, rec.Code)
				}
				if !bytes.Equal(rec.Body.Bytes(), legacy) {
					t.Errorf("%s payload differs from the legacy server (%d vs %d bytes)",
						url, rec.Body.Len(), len(legacy))
				}
			}
			compare("/api/alarms/delay", legacyEncode(t, legacyDelay))
			compare("/api/alarms/forwarding", legacyEncode(t, legacyFwd))
			compare("/api/events", legacyEncode(t, legacyEvents))

			// Magnitude values must equal the legacy full recomputation for
			// every alarmed AS (the response shape intentionally changed:
			// both keys always present).
			for _, asn := range ref.ASes() {
				rec := get(t, srv, fmt.Sprintf("/api/magnitude?asn=%d", uint32(asn)))
				var got struct {
					Delay      []Point `json:"delay"`
					Forwarding []Point `json:"forwarding"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Fatal(err)
				}
				checkMag := func(family string, gotPts []Point, wantPts []Point) {
					t.Helper()
					if len(gotPts) != len(wantPts) {
						t.Fatalf("AS%d %s: %d points, legacy %d", asn, family, len(gotPts), len(wantPts))
					}
					for i := range wantPts {
						if !gotPts[i].T.Equal(wantPts[i].T) || gotPts[i].V != wantPts[i].V {
							t.Fatalf("AS%d %s point %d: %+v vs legacy %+v", asn, family, i, gotPts[i], wantPts[i])
						}
					}
				}
				checkMag("delay", got.Delay, toPoints(ref.DelayMagnitude(asn, c.Start, c.End)))
				checkMag("forwarding", got.Forwarding, toPoints(ref.ForwardingMagnitude(asn, c.Start, c.End)))
			}
		})
	}
}

func toPoints(pts []timeseries.Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = Point{T: p.T, V: p.V}
	}
	return out
}
