package delay

import (
	"math"
	"testing"

	"pinpoint/internal/ipmap"
)

// verdictProbes are the probe IDs FuzzDiversityVerdict's runs pick from:
// both ends of int32, negatives, small IDs and Atlas-sized ones.
var verdictProbes = [16]int32{
	math.MinInt32, math.MinInt32 + 1, -1000000, -2, -1, 0, 1, 2,
	3, 42, 1000003, 9999999, math.MaxInt32 - 2, math.MaxInt32 - 1, math.MaxInt32, 7,
}

// FuzzDiversityVerdict pins §4.3's counts-first verdict (count, verdict)
// to the grouping path it stands in for (probeRuns, groupRuns,
// filterDiversity), on one link-bin of arbitrary runs: both must see the
// same probes and ASes, accept the same link-bins, and the counts must ask
// for a drop exactly when the grouping path drops a probe.
//
// data[0] picks the number of ASes (1 + data[0]&7 % 6) and, in its top
// bit, turns the filter off; data[1:17] put each of verdictProbes in an AS
// (by default probe i is in AS i mod the number of ASes); every further
// byte is one single-∆ view of verdictProbes[b&15], so a probe returns to
// the link whenever another's view came between.
func FuzzDiversityVerdict(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 0, 14, 13, 0, 1, 2, 5, 0, 14})
	f.Add([]byte{0x81, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		nAS := 1 + int(data[0]&7)%6
		filterOff := data[0]&0x80 != 0
		var asOf [16]ipmap.ASN
		for i := range asOf {
			a := i % nAS
			if 1+i < len(data) {
				a = int(data[1+i]) % nAS
			}
			asOf[i] = ipmap.ASN(64500 + a)
		}
		if len(data) <= 17 {
			return
		}

		d := NewDetector(Config{Seed: 9, DisableDiversityFilter: filterOff}, nil)
		link := d.intern.Link(d.intern.Addr(nearA), d.intern.Addr(farB))
		var batch []Sample
		probeAS := map[int32]ipmap.ASN{}
		for k, b := range data[17:] {
			p := verdictProbes[b&15]
			batch = append(batch, Sample{Link: link, Probe: p, ASN: asOf[b&15], Delta: float64(k)})
			probeAS[p] = asOf[b&15]
		}
		ases := map[ipmap.ASN]bool{}
		for _, a := range probeAS {
			ases[a] = true
		}
		var col Column
		var log Log
		logSamples(&col, &log, batch)
		d.ShareColumn(&col)
		d.BeginBin(t0)
		d.IngestLog(&log)
		if len(d.binLinks) != 1 {
			t.Fatalf("%d links in the bin, want 1", len(d.binLinks))
		}
		id := d.binLinks[0]
		si := d.slotOf[id]

		probes := d.count(si)
		nASes := len(d.binASes)
		ok, thin := d.verdict()

		runs := d.probeRuns(si)
		column := d.column(si)
		rord, groups := d.groupRuns(runs)
		d.reseed(d.reg.LinkKeyOf(id), t0)
		samples, kept, keptASes, okGroups := d.filterDiversity(column, runs, rord, groups)

		if probes != len(probeAS) || probes != len(groups) {
			t.Errorf("counts see %d probes, grouping %d; the bin holds %d", probes, len(groups), len(probeAS))
		}
		if nASes != len(ases) {
			t.Errorf("counts see %d ASes; the bin holds %d", nASes, len(ases))
		}
		if ok != okGroups {
			t.Fatalf("counts accept=%v, grouping accept=%v (%d ASes, filter off=%v)", ok, okGroups, nASes, filterOff)
		}
		if !ok {
			return
		}
		if keptASes != nASes {
			t.Errorf("grouping keeps %d ASes, counts see %d", keptASes, nASes)
		}
		if dropped := kept < len(groups); thin != dropped {
			t.Errorf("counts ask to thin=%v, grouping kept %d of %d probes", thin, kept, len(groups))
		}
		if !thin && (kept != probes || len(samples) != len(column) || &samples[0] != &column[0]) {
			t.Errorf("a whole link-bin's samples must be its column: kept %d of %d probes, %d of %d ∆s", kept, probes, len(samples), len(column))
		}
		if len(d.probeMark) > len(probeAS) || len(d.asTally) > len(ases) {
			t.Errorf("per-probe table of %d and per-AS table of %d for %d probes of %d ASes", len(d.probeMark), len(d.asTally), len(probeAS), len(ases))
		}
	})
}
